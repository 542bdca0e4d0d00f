package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/la"
)

// Fast NDJSON wire path for round streams.
//
// encoding/json's reflection walk costs ~250ns per float in each
// direction, and a round stream is almost nothing but floats: at 1k
// rounds x 23 paths the reflective codec spends more time on the wire
// format than the solver spends on the estimates. The helpers here
// hand-roll the two hot shapes — StreamRound in, StreamVerdict out —
// and every one degrades to encoding/json on any input it does not
// fully understand, so semantics (including error behaviour on
// malformed lines) are unchanged; only the happy path gets cheaper.
//
// The float formatting replicates encoding/json's ES6-style rules
// exactly ('f' format in [1e-6, 1e21), 'e' elsewhere, with the
// two-digit negative exponent trimmed), so fast-encoded bytes are
// byte-identical to what the reflective encoder would have produced.

// appendJSONFloat appends f the way encoding/json renders a float64.
// ok is false for NaN/Inf, which JSON cannot represent — callers fall
// back to encoding/json to fail the same way it would.
func appendJSONFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans "e-09" up to "e-9".
		if l := len(dst); l-n >= 4 && dst[l-4] == 'e' && dst[l-3] == '-' && dst[l-2] == '0' {
			dst[l-2] = dst[l-1]
			dst = dst[:l-1]
		}
	}
	return dst, true
}

// fastScan is a minimal JSON scanner over one NDJSON line. It accepts
// only the grammar the fast paths need (objects with simple keys,
// arrays of numbers, booleans); anything richer makes the caller fall
// back to encoding/json.
type fastScan struct {
	b []byte
	i int
}

func (s *fastScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

func (s *fastScan) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes the exact literal (no surrounding whitespace skipped
// beyond the leading run).
func (s *fastScan) lit(l string) bool {
	s.ws()
	if s.i+len(l) > len(s.b) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// key reads a quoted string of printable ASCII without escapes: keys,
// and packed payloads, whose base64 alphabet needs no escaping. Control
// bytes (which JSON forbids raw in strings) and non-ASCII bytes (which
// encoding/json rewrites when they are not valid UTF-8) are refused.
func (s *fastScan) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			return k, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		default:
			s.i++
		}
	}
	return nil, false
}

// number reads one JSON number, exactly as strconv.ParseFloat would
// (see scanNumber).
func (s *fastScan) number() (float64, bool) {
	s.ws()
	f, n, ok := scanNumber(s.b[s.i:])
	s.i += n
	return f, ok
}

// integer reads a JSON number that encoding/json would accept for an
// int field: no fraction, no exponent, at most 18 digits (longer ones
// go to the reflective decoder, which range-checks them).
func (s *fastScan) integer() (int, bool) {
	s.ws()
	_, n, ok := scanNumber(s.b[s.i:])
	tok := s.b[s.i : s.i+n]
	s.i += n
	if !ok {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 18 {
		return 0, false
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// floats appends the numbers of a JSON array to dst.
func (s *fastScan) floats(dst []float64) ([]float64, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		f, ok := s.number()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return dst, true
		}
		return dst, false
	}
}

func (s *fastScan) boolean() (bool, bool) {
	if s.lit("true") {
		return true, true
	}
	if s.lit("false") {
		return false, true
	}
	return false, false
}

func (s *fastScan) done() bool {
	s.ws()
	return s.i == len(s.b)
}

// roundDecoder turns the request lines of one round stream into
// measurement vectors. Every float of a line — from y, rounds or a
// packed payload — lands in one flat slice that the next line reuses,
// and the returned rows are views into it, so a warm decoder allocates
// nothing per line. It lives for one request and is never pooled: a
// retained decoder would hold a line's worth of floats per session.
type roundDecoder struct {
	flat   []float64   // the line's floats, row-major
	bounds []int       // rounds: row r is flat[bounds[r]:bounds[r+1]]
	rows   []la.Vector // views into flat, returned by batch
	raw    []byte      // decoded packed payload

	// What the line set. y and rounds distinguish present-but-empty
	// from absent, as encoding/json's nil vs empty slices do.
	y, rounds bool
	ylo, yhi  int
	nullRow   int    // first null rounds row (reflective decode only), or -1
	packed    []byte // the packed string; empty means absent
	xhat      bool   // verdicts carry estimates (absent or true)
}

func (d *roundDecoder) reset() {
	d.flat = d.flat[:0]
	d.bounds = d.bounds[:0]
	d.y, d.rounds, d.ylo, d.yhi = false, false, 0, 0
	d.nullRow = -1
	d.packed = nil
	d.xhat = true
}

// parse decodes one request line. The hand-rolled scan covers the plain
// {"y":[...]}, {"rounds":[[...]]} and {"packed":"..."} shapes; any line
// it does not fully accept — unusual-but-valid and invalid JSON alike —
// goes through encoding/json, so semantics and error text are the
// reflective decoder's.
func (d *roundDecoder) parse(line []byte) error {
	if d.scan(line) {
		return nil
	}
	var sr StreamRound
	if err := json.Unmarshal(line, &sr); err != nil {
		return fmt.Errorf("%w: invalid NDJSON line: %v", ErrBadRequest, err)
	}
	d.load(&sr)
	return nil
}

// scan is parse's fast path. It reports false on anything off the
// plain shapes, leaving the decoder to be reset by load.
func (d *roundDecoder) scan(line []byte) bool {
	d.reset()
	s := fastScan{b: line}
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return s.done()
	}
	for {
		k, ok := s.key()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(k) {
		case "y":
			// A repeated key wins last, as in encoding/json; the
			// earlier value's floats stay unused in flat.
			lo := len(d.flat)
			if d.flat, ok = s.floats(d.flat); !ok {
				return false
			}
			d.y, d.ylo, d.yhi = true, lo, len(d.flat)
		case "rounds":
			if !s.eat('[') {
				return false
			}
			d.rounds = true
			d.bounds = d.bounds[:0]
			if s.eat(']') {
				break
			}
			for {
				d.bounds = append(d.bounds, len(d.flat))
				if d.flat, ok = s.floats(d.flat); !ok {
					return false
				}
				if s.eat(',') {
					continue
				}
				if s.eat(']') {
					break
				}
				return false
			}
			d.bounds = append(d.bounds, len(d.flat))
		case "packed":
			if d.packed, ok = s.key(); !ok {
				return false
			}
		case "xhat":
			if d.xhat, ok = s.boolean(); !ok {
				return false
			}
		default:
			return false
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return s.done()
		}
		return false
	}
}

// load fills the decoder from a reflectively decoded line.
func (d *roundDecoder) load(sr *StreamRound) {
	d.reset()
	if sr.Y != nil {
		d.flat = append(d.flat, sr.Y...)
		d.y, d.yhi = true, len(d.flat)
	}
	if sr.Rounds != nil {
		d.rounds = true
		for r, row := range sr.Rounds {
			if row == nil && d.nullRow < 0 {
				d.nullRow = r
			}
			d.bounds = append(d.bounds, len(d.flat))
			d.flat = append(d.flat, row...)
		}
		if len(sr.Rounds) > 0 {
			d.bounds = append(d.bounds, len(d.flat))
		}
	}
	d.packed = []byte(sr.Packed)
	d.xhat = sr.XHat == nil || *sr.XHat
}

// batch resolves the parsed line into measurement vectors, enforcing
// exactly one of y, rounds and packed; numPaths is the session system's
// current path count, which slices packed payloads into rows. The rows
// are valid until the next parse.
func (d *roundDecoder) batch(numPaths int) ([]la.Vector, error) {
	set := 0
	if d.y {
		set++
	}
	if d.rounds {
		set++
	}
	if len(d.packed) > 0 {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("%w: provide exactly one of y, rounds, packed", ErrBadRequest)
	}
	d.rows = d.rows[:0]
	switch {
	case d.y:
		d.rows = append(d.rows, d.flat[d.ylo:d.yhi:d.yhi])
	case len(d.packed) > 0:
		return d.unpack(numPaths)
	case len(d.bounds) == 0:
		return nil, fmt.Errorf("%w: empty rounds", ErrBadRequest)
	case d.nullRow >= 0:
		return nil, fmt.Errorf("%w: rounds[%d] is null", ErrBadRequest, d.nullRow)
	default:
		for r := 0; r+1 < len(d.bounds); r++ {
			lo, hi := d.bounds[r], d.bounds[r+1]
			d.rows = append(d.rows, d.flat[lo:hi:hi])
		}
	}
	return d.rows, nil
}

// unpack decodes the packed payload: base64 of n x m row-major
// little-endian float64s, m fixed by the session's path count.
func (d *roundDecoder) unpack(m int) ([]la.Vector, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: session system has no paths", ErrBadRequest)
	}
	n := base64.StdEncoding.DecodedLen(len(d.packed))
	if cap(d.raw) < n {
		d.raw = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(d.raw[:n], d.packed)
	if err != nil {
		return nil, fmt.Errorf("%w: packed rounds: %v", ErrBadRequest, err)
	}
	raw := d.raw[:n]
	if len(raw) == 0 || len(raw)%(8*m) != 0 {
		return nil, fmt.Errorf("%w: packed payload is %d bytes, want a positive multiple of 8x%d",
			ErrBadRequest, len(raw), m)
	}
	d.flat = d.flat[:0]
	for i := 0; i < len(raw); i += 8 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%w: packed float %d is not finite", ErrBadRequest, i/8)
		}
		d.flat = append(d.flat, f)
	}
	d.rows = d.rows[:0]
	for lo := 0; lo < len(d.flat); lo += m {
		d.rows = append(d.rows, d.flat[lo:lo+m:lo+m])
	}
	return d.rows, nil
}

// AppendStreamRound appends sr's NDJSON wire form (with trailing
// newline), byte-identical to encoding/json's rendering. ok is false
// when sr needs the reflective encoder (non-finite values); callers
// fall back to json.Encoder then. Exported for streaming clients that
// build request lines in bulk.
func AppendStreamRound(dst []byte, sr *StreamRound) (out []byte, ok bool) {
	dst = append(dst, '{')
	sep := false
	field := func(name string) {
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = append(dst, '"')
		dst = append(dst, name...)
		dst = append(dst, '"', ':')
	}
	if len(sr.Y) > 0 { // omitempty drops empty slices, not just nil
		field("y")
		dst, ok = appendFloats(dst, sr.Y)
		if !ok {
			return dst, false
		}
	}
	if len(sr.Rounds) > 0 {
		field("rounds")
		dst = append(dst, '[')
		for i, row := range sr.Rounds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, ok = appendFloats(dst, row)
			if !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if sr.Packed != "" {
		// Emit raw only when the payload stays inside the base64
		// alphabet, which never needs JSON (or HTML) escaping; anything
		// else goes through the reflective encoder.
		for i := 0; i < len(sr.Packed); i++ {
			c := sr.Packed[i]
			if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' ||
				c == '+' || c == '/' || c == '=') {
				return dst, false
			}
		}
		field("packed")
		dst = append(dst, '"')
		dst = append(dst, sr.Packed...)
		dst = append(dst, '"')
	}
	if sr.XHat != nil {
		field("xhat")
		dst = strconv.AppendBool(dst, *sr.XHat)
	}
	dst = append(dst, '}', '\n')
	return dst, true
}

func appendFloats(dst []byte, xs []float64) (out []byte, ok bool) {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, ok = appendJSONFloat(dst, x)
		if !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendStreamVerdict appends v's NDJSON line, byte-identical to the
// reflective encoder (xhat omitted when nil, per its omitempty tag).
func appendStreamVerdict(dst []byte, v *StreamVerdict) (out []byte, ok bool) {
	dst = append(dst, `{"round":`...)
	dst = strconv.AppendInt(dst, int64(v.Round), 10)
	dst = append(dst, `,"detected":`...)
	dst = strconv.AppendBool(dst, v.Detected)
	dst = append(dst, `,"residualNorm":`...)
	dst, ok = appendJSONFloat(dst, v.ResidualNorm)
	if !ok {
		return dst, false
	}
	if len(v.XHat) > 0 { // omitempty: empty estimates are dropped like nil
		dst = append(dst, `,"xhat":`...)
		dst, ok = appendFloats(dst, v.XHat)
		if !ok {
			return dst, false
		}
	}
	return append(dst, '}', '\n'), true
}

// ParseStreamVerdict is the client-side fast path for one response
// line. It accepts exactly the key order the server emits (round,
// detected, residualNorm, then optional xhat) and reports false for
// anything else — summary lines, error lines, hand-written JSON — which
// callers then route through a reflective decode. Parsed floats are
// bit-identical to encoding/json's.
func ParseStreamVerdict(line []byte, v *StreamVerdict) bool {
	s := fastScan{b: line}
	if !s.eat('{') || !s.lit(`"round"`) || !s.eat(':') {
		return false
	}
	var ok bool
	if v.Round, ok = s.integer(); !ok {
		return false
	}
	if !s.eat(',') || !s.lit(`"detected"`) || !s.eat(':') {
		return false
	}
	if v.Detected, ok = s.boolean(); !ok {
		return false
	}
	if !s.eat(',') || !s.lit(`"residualNorm"`) || !s.eat(':') {
		return false
	}
	if v.ResidualNorm, ok = s.number(); !ok {
		return false
	}
	if s.eat(',') {
		if !s.lit(`"xhat"`) || !s.eat(':') {
			return false
		}
		// A fresh slice per verdict (callers keep it); an empty array
		// decodes non-nil, as in encoding/json.
		if v.XHat, ok = s.floats(make([]float64, 0, 8)); !ok {
			return false
		}
	}
	return s.eat('}') && s.done()
}
