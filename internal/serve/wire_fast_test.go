package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/la"
)

// edgeFloats are the values where ES6-style formatting switches shape:
// zero, sign, the 1e-6 / 1e21 format boundaries, shortest-repr
// round-trip cases, and 17-significant-digit values.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.25,
	1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 9.99e20, 1e22,
	1e-300, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Pi, -math.Pi, 1.0 / 3.0, 2.2250738585072014e-308,
	123456789.123456789, 0.1, 0.2, 0.30000000000000004,
	4503599627370496, 9007199254740993, 1e15, 1e16,
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendJSONFloatMatchesEncodingJSON checks the hand-rolled float
// encoder against encoding/json byte for byte: on the edge table and on
// a large sample of random bit patterns. Any divergence would split the
// fast and reflective wire forms, breaking transcript digests.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		got, ok := appendJSONFloat(nil, f)
		if !ok {
			t.Fatalf("appendJSONFloat rejected finite %g", f)
		}
		if want := jsonBytes(t, f); !bytes.Equal(got, want) {
			t.Errorf("float %g: fast %q, encoding/json %q", f, got, want)
		}
	}
	for _, f := range edgeFloats {
		check(f)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendJSONFloat(nil, f); ok {
			t.Errorf("appendJSONFloat accepted non-finite %v", f)
		}
	}
}

// TestAppendStreamRoundMatchesEncodingJSON pins the fast request
// encoder to the reflective one across every field combination,
// including empty-but-non-nil slices (whose omitempty behaviour differs
// from nil).
func TestAppendStreamRoundMatchesEncodingJSON(t *testing.T) {
	yes, no := true, false
	packed, err := PackRounds([][]float64{{1, 2.5, -3e-9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []StreamRound{
		{},
		{Y: []float64{}},
		{Y: edgeFloats},
		{Y: []float64{1}, XHat: &no},
		{Rounds: [][]float64{}},
		{Rounds: [][]float64{{}}},
		{Rounds: [][]float64{edgeFloats, {0, -0.5}}},
		{Rounds: [][]float64{{1e21}}, XHat: &yes},
		{Packed: packed},
		{Packed: packed, XHat: &no},
		{XHat: &yes},
	}
	for i, sr := range cases {
		got, ok := AppendStreamRound(nil, &sr)
		if !ok {
			t.Fatalf("case %d: fast encoder refused %+v", i, sr)
		}
		want := append(jsonBytes(t, sr), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: fast %q, encoding/json %q", i, got, want)
		}
	}
	if _, ok := (AppendStreamRound(nil, &StreamRound{Y: []float64{math.Inf(1)}})); ok {
		t.Error("fast encoder accepted a non-finite y")
	}
	if _, ok := (AppendStreamRound(nil, &StreamRound{Packed: `not"base64`})); ok {
		t.Error("fast encoder accepted a packed payload needing JSON escaping")
	}
}

// TestAppendStreamVerdictMatchesEncodingJSON pins the response-side
// encoder, with and without the slim-mode xhat omission.
func TestAppendStreamVerdictMatchesEncodingJSON(t *testing.T) {
	cases := []StreamVerdict{
		{Round: 0, Detected: false, ResidualNorm: 0},
		{Round: 941, Detected: true, ResidualNorm: 1234.5678901234567},
		{Round: 2, ResidualNorm: 3.2e-8, XHat: edgeFloats},
		{Round: 3, ResidualNorm: 7, XHat: []float64{}},
	}
	for i, v := range cases {
		got, ok := appendStreamVerdict(nil, &v)
		if !ok {
			t.Fatalf("case %d: fast encoder refused %+v", i, v)
		}
		want := append(jsonBytes(t, v), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: fast %q, encoding/json %q", i, got, want)
		}
	}
	if _, ok := appendStreamVerdict(nil, &StreamVerdict{ResidualNorm: math.NaN()}); ok {
		t.Error("fast encoder accepted a NaN residual")
	}
}

// fastRound runs the round decoder's hand-rolled scan alone and
// renders what it read as the StreamRound encoding/json would produce,
// for comparison with the reflective decoder.
func fastRound(line []byte) (StreamRound, bool) {
	var d roundDecoder
	if !d.scan(line) {
		return StreamRound{}, false
	}
	var sr StreamRound
	if d.y {
		sr.Y = append([]float64{}, d.flat[d.ylo:d.yhi]...)
	}
	if d.rounds {
		sr.Rounds = [][]float64{}
		for r := 0; r+1 < len(d.bounds); r++ {
			sr.Rounds = append(sr.Rounds, append([]float64{}, d.flat[d.bounds[r]:d.bounds[r+1]]...))
		}
	}
	sr.Packed = string(d.packed)
	sr.XHat = &d.xhat
	return sr, true
}

// sameRound reports whether a and b are the same decoded line: equal
// float bits (so -0 and 0 differ), and nil vs empty kept apart.
func sameRound(a, b StreamRound) bool {
	sameFloats := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !sameFloats(a.Y, b.Y) || (a.Rounds == nil) != (b.Rounds == nil) || len(a.Rounds) != len(b.Rounds) {
		return false
	}
	for r := range a.Rounds {
		if !sameFloats(a.Rounds[r], b.Rounds[r]) {
			return false
		}
	}
	// xhat compares by effect: absent means true.
	wantX := func(p *bool) bool { return p == nil || *p }
	return a.Packed == b.Packed && wantX(a.XHat) == wantX(b.XHat)
}

// strictNumbers are numbers that the JSON grammar rejects and a
// loose scanner would read: leading zeros, a bare or exponent-less dot,
// a plus sign, an empty exponent. encoding/json fails on each, so the
// fast paths must refuse them and leave the error to it.
var strictNumbers = []string{
	"01", "-01.5", "00", "1.", "1.e5", ".5", "-.5", "+1", "1e", "1e+",
	"-", "--1", "0x10", "1_000", "1.5.2", "1e5e5", "Infinity", "NaN",
}

// TestParseStreamRoundRoundTrip checks the fast decoder on its own
// output (bit-exact floats) and on reflective output, and checks that
// every shape it cannot handle is refused rather than misparsed — those
// lines must land in encoding/json with identical semantics.
func TestParseStreamRoundRoundTrip(t *testing.T) {
	yes := false
	packed, err := PackRounds([][]float64{edgeFloats})
	if err != nil {
		t.Fatal(err)
	}
	rounds := []StreamRound{
		{Y: edgeFloats},
		{Rounds: [][]float64{edgeFloats, {1, 2, 3}}},
		{Packed: packed, XHat: &yes},
	}
	for i, want := range rounds {
		for _, line := range [][]byte{
			jsonBytes(t, want),
			[]byte("  " + string(jsonBytes(t, want)) + " \t"),
		} {
			got, ok := fastRound(line)
			if !ok {
				t.Fatalf("case %d: fast decoder refused %s", i, line)
			}
			if !sameRound(got, want) {
				t.Errorf("case %d: round-trip drift: %+v vs %+v", i, got, want)
			}
		}
	}

	// Valid-but-unusual JSON the fast path must hand to encoding/json.
	fallbacks := []string{
		`{"y":[1],"extra":2}`,       // unknown key
		`{"y":[1e999]}`,             // out-of-range number (json errors too)
		`{"y":null}`,                // null where array expected
		`{"\u0079":[1]}`,            // escaped key
		`{"xhat":"true"}`,           // wrong type
		`{"y":[1]} trailing`,        // trailing garbage
		`{"rounds":[[1],null]}`,     // null row
		`{"packed":"a\u002bc"}`,     // escape inside string
		"{\"packed\":\"AA\rAA\"}",   // raw control byte (base64 would skip it)
		"{\"packed\":\"AA\xffAA\"}", // invalid UTF-8 (json rewrites it)
		`["y"]`, `42`, `"s"`, `{"`,  // non-objects / malformed
	}
	for _, n := range strictNumbers {
		fallbacks = append(fallbacks, `{"y":[`+n+`]}`, `{"rounds":[[1,`+n+`]]}`)
	}
	for _, s := range fallbacks {
		if _, ok := fastRound([]byte(s)); ok {
			t.Errorf("fast decoder accepted %q; must fall back to encoding/json", s)
		}
	}
	for _, n := range strictNumbers {
		var sr StreamRound
		if json.Unmarshal([]byte(`{"y":[`+n+`]}`), &sr) == nil {
			t.Errorf("encoding/json accepted %q; the strict-number table is wrong", n)
		}
	}
}

// TestParseStreamVerdictRoundTrip checks the client fast path on real
// server output and verifies anything off the exact emitted shape —
// including reordered keys — is refused for reflective decoding.
func TestParseStreamVerdictRoundTrip(t *testing.T) {
	cases := []StreamVerdict{
		{Round: 0, ResidualNorm: 1e-9},
		{Round: 17, Detected: true, ResidualNorm: 500.25, XHat: edgeFloats},
	}
	for i, want := range cases {
		line, ok := appendStreamVerdict(nil, &want)
		if !ok {
			t.Fatal("encoder refused finite verdict")
		}
		var got StreamVerdict
		if !ParseStreamVerdict(bytes.TrimSuffix(line, []byte("\n")), &got) {
			t.Fatalf("case %d: fast decoder refused server output %s", i, line)
		}
		if !bytes.Equal(jsonBytes(t, got), jsonBytes(t, want)) {
			t.Errorf("case %d: round-trip drift: %+v vs %+v", i, got, want)
		}
	}
	bad := []string{
		`{"detected":false,"round":1,"residualNorm":2}`, // reordered
		`{"round":1.5,"detected":false,"residualNorm":2}`,
		`{"round":1,"detected":false,"residualNorm":2,"extra":3}`,
		`{"done":true,"rounds":5,"alarms":0}`,
		`{"round":0,"error":"boom"}`,
		`{"round":1.0,"detected":false,"residualNorm":2}`, // json refuses a fraction for an int
		`{"round":1e2,"detected":false,"residualNorm":2}`,
		`{"round":01,"detected":false,"residualNorm":2}`,
	}
	for _, n := range strictNumbers {
		bad = append(bad,
			`{"round":1,"detected":false,"residualNorm":`+n+`}`,
			`{"round":1,"detected":false,"residualNorm":2,"xhat":[1,`+n+`]}`)
	}
	for _, s := range bad {
		var v StreamVerdict
		if ParseStreamVerdict([]byte(s), &v) {
			t.Errorf("fast decoder accepted %q", s)
		}
	}
}

// unpackRounds decodes a packed payload through the round decoder, as
// a packed request line would be.
func unpackRounds(s string, m int) ([]la.Vector, error) {
	d := roundDecoder{packed: []byte(s)}
	return d.unpack(m)
}

// TestPackedRoundTrip checks the packed wire form end to end in memory:
// PackRounds -> unpackRounds must be bit-exact, and malformed payloads
// must be rejected as bad requests.
func TestPackedRoundTrip(t *testing.T) {
	rows := [][]float64{edgeFloats, make([]float64, len(edgeFloats))}
	for i := range rows[1] {
		rows[1][i] = float64(i) * 1.75
	}
	s, err := PackRounds(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unpackRounds(s, len(edgeFloats))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("unpacked %d rows, want 2", len(got))
	}
	for r := range got {
		for i := range got[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(rows[r][i]) {
				t.Fatalf("row %d col %d: %x != %x", r, i,
					math.Float64bits(got[r][i]), math.Float64bits(rows[r][i]))
			}
		}
	}

	if _, err := PackRounds(nil); err == nil {
		t.Error("PackRounds accepted an empty batch")
	}
	if _, err := PackRounds([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("PackRounds accepted ragged rows")
	}
	nan, _ := PackRounds([][]float64{{math.NaN()}})
	for _, bad := range []struct{ s string }{
		{"***"},        // not base64
		{s[:len(s)/2]}, // wrong length for row width
		{""},           // unreachable via batch(), but must still error
		{nan},          // non-finite payload
	} {
		if _, err := unpackRounds(bad.s, len(edgeFloats)); err == nil {
			t.Errorf("unpackRounds accepted %q", bad.s)
		}
	}
	if _, err := unpackRounds(s, 0); err == nil {
		t.Error("unpackRounds accepted a zero-path system")
	}
}

// TestStreamRoundBatchValidation checks the exactly-one-of contract
// over y / rounds / packed, on lines loaded from the reflective decoder
// (which alone produces null rows) and on the fast scan of the same
// lines.
func TestStreamRoundBatchValidation(t *testing.T) {
	p, _ := PackRounds([][]float64{{1, 2}})
	bad := []StreamRound{
		{},
		{Y: []float64{1}, Rounds: [][]float64{{1}}},
		{Y: []float64{1}, Packed: p},
		{Rounds: [][]float64{{1}}, Packed: p},
		{Rounds: [][]float64{}},
		{Rounds: [][]float64{nil}},
	}
	for i, sr := range bad {
		var d roundDecoder
		d.load(&sr)
		if _, err := d.batch(2); err == nil {
			t.Errorf("case %d: batch accepted %+v", i, sr)
		}
		if err := d.parse(jsonBytes(t, sr)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, err := d.batch(2); err == nil {
			t.Errorf("case %d: batch accepted the wire form of %+v", i, sr)
		}
	}
	var d roundDecoder
	d.load(&StreamRound{Packed: p})
	ys, err := d.batch(2)
	if err != nil || len(ys) != 1 || len(ys[0]) != 2 {
		t.Fatalf("packed batch: %v %v", ys, err)
	}
}

// TestSessionStreamPacked drives the packed wire form through the live
// HTTP session path: a packed slim batch must yield the same verdicts
// as the equivalent rounds batch, minus the estimates.
func TestSessionStreamPacked(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)

	rounds := measureRounds(t, sys, 31, 8)
	rounds[5][0] += 30000 // force one alarm

	_, plain, errLine, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Rounds: rounds}))
	if errLine != nil || len(plain) != 8 {
		t.Fatalf("plain stream: err=%+v verdicts=%d", errLine, len(plain))
	}

	packed, err := PackRounds(rounds)
	if err != nil {
		t.Fatal(err)
	}
	slim := false
	status, got, errLine, summary := postStream(t, ts, sr.Session,
		roundsBody(t, StreamRound{Packed: packed, XHat: &slim}))
	if status != http.StatusOK || errLine != nil {
		t.Fatalf("packed stream: status=%d err=%+v", status, errLine)
	}
	if len(got) != 8 || summary == nil || summary.Rounds != 8 || summary.Alarms != 1 {
		t.Fatalf("packed stream: %d verdicts, summary %+v", len(got), summary)
	}
	for i := range got {
		if got[i].XHat != nil {
			t.Errorf("verdict %d: slim mode still shipped an estimate", i)
		}
		if got[i].Round != plain[i].Round || got[i].Detected != plain[i].Detected ||
			got[i].ResidualNorm != plain[i].ResidualNorm {
			t.Errorf("verdict %d: packed %+v != plain %+v", i, got[i], plain[i])
		}
	}

	// A payload whose length does not divide into rows of numPaths is a
	// bad request reported in-stream.
	_, _, errLine, _ = postStream(t, ts, sr.Session,
		roundsBody(t, StreamRound{Packed: "AAAAAAAAAAA="}))
	if errLine == nil || !strings.Contains(errLine.Error, "packed") {
		t.Fatalf("short packed payload not rejected: %+v", errLine)
	}
}

// FuzzParseStreamRound checks both fast line decoders against
// encoding/json: whenever the round decoder's scan or ParseStreamVerdict
// accepts a line, encoding/json accepts it too and decodes the same
// values, floats bit for bit. Equivalently, a line encoding/json
// rejects is never accepted by a fast path.
func FuzzParseStreamRound(f *testing.F) {
	for _, n := range append(append([]string{}, numberSeeds...), strictNumbers...) {
		f.Add([]byte(`{"rounds":[[` + n + `,1],[2]],"xhat":false}`))
		f.Add([]byte(`{"round":3,"detected":true,"residualNorm":` + n + `,"xhat":[` + n + `]}`))
	}
	f.Add([]byte(`{"y":[1,2],"y":[3]}`))
	f.Add([]byte(`{"packed":"AAAAAAAA8D8=","xhat":true}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		if fast, ok := fastRound(line); ok {
			var sr StreamRound
			if err := json.Unmarshal(line, &sr); err != nil {
				t.Fatalf("%q: fast round decoder accepted, encoding/json: %v", line, err)
			}
			if !sameRound(fast, sr) {
				t.Fatalf("%q: fast %+v, encoding/json %+v", line, fast, sr)
			}
		}
		var fast StreamVerdict
		if ParseStreamVerdict(line, &fast) {
			var v StreamVerdict
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatalf("%q: ParseStreamVerdict accepted, encoding/json: %v", line, err)
			}
			if fast.Round != v.Round || fast.Detected != v.Detected ||
				!sameRound(StreamRound{Y: []float64{fast.ResidualNorm}, Rounds: [][]float64{fast.XHat}},
					StreamRound{Y: []float64{v.ResidualNorm}, Rounds: [][]float64{v.XHat}}) {
				t.Fatalf("%q: fast %+v, encoding/json %+v", line, fast, v)
			}
		}
	})
}
