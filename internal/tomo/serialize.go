package tomo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// Digest returns a stable hex digest of the routing matrix: SHA-256 over
// its dimensions and the set of link indices on each path, in path
// order. Two systems share a digest exactly when they share R — and
// therefore share the normal-equation factorization — which makes the
// digest the cache-invalidation key for long-lived solver caches (a
// changed topology or path set changes R and thus the key).
func (s *System) Digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.sr.Rows()))
	put(uint64(s.sr.Cols()))
	for i := 0; i < s.sr.Rows(); i++ {
		// CSR stores each row's nonzero columns in increasing order, so
		// this emits byte-identical output to the historical dense scan
		// — digests (and therefore solver-cache keys and WAL records)
		// are unchanged.
		s.sr.Row(i, func(j int, _ float64) { put(uint64(j)) })
		put(^uint64(0)) // row sentinel
	}
	return hex.EncodeToString(h.Sum(nil))
}

// systemDoc is the JSON schema for a saved measurement configuration:
// paths as node-name sequences, so the file survives node-ID reordering
// as long as names are stable.
type systemDoc struct {
	Version int        `json:"version"`
	Paths   [][]string `json:"paths"`
}

const systemDocVersion = 1

// Save writes the system's measurement paths as JSON. Together with the
// topology edge list (graph.WriteEdgeList) this captures a complete
// monitoring configuration: operators can version it, diff it, and
// reload it for reproducible measurement campaigns.
func (s *System) Save(w io.Writer) error {
	doc := systemDoc{Version: systemDocVersion}
	for _, p := range s.Paths() {
		names := make([]string, len(p.Nodes))
		for i, v := range p.Nodes {
			n, err := s.g.NodeName(v)
			if err != nil {
				return fmt.Errorf("tomo: Save: %w", err)
			}
			names[i] = n
		}
		doc.Paths = append(doc.Paths, names)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("tomo: Save: %w", err)
	}
	return nil
}

// LoadSystem reads a saved measurement configuration against a topology:
// node names are resolved, links between consecutive nodes looked up,
// and the resulting system validated exactly like NewSystem.
func LoadSystem(g *graph.Graph, r io.Reader) (*System, error) {
	var doc systemDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tomo: LoadSystem: %w", err)
	}
	if doc.Version != systemDocVersion {
		return nil, fmt.Errorf("tomo: LoadSystem: unsupported version %d", doc.Version)
	}
	if len(doc.Paths) == 0 {
		return nil, fmt.Errorf("tomo: LoadSystem: no paths")
	}
	paths := make([]graph.Path, 0, len(doc.Paths))
	for pi, names := range doc.Paths {
		if len(names) < 2 {
			return nil, fmt.Errorf("tomo: LoadSystem: path %d has %d nodes", pi, len(names))
		}
		p := graph.Path{}
		for i, name := range names {
			v, ok := g.NodeByName(name)
			if !ok {
				return nil, fmt.Errorf("tomo: LoadSystem: path %d: unknown node %q", pi, name)
			}
			p.Nodes = append(p.Nodes, v)
			if i > 0 {
				l, ok := g.LinkBetween(p.Nodes[i-1], v)
				if !ok {
					return nil, fmt.Errorf("tomo: LoadSystem: path %d: no link %q–%q", pi, names[i-1], name)
				}
				p.Links = append(p.Links, l)
			}
		}
		paths = append(paths, p)
	}
	return NewSystem(g, paths)
}
