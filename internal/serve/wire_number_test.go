package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// numberSeeds are the tokens where a hand-rolled float parser goes
// wrong: 16–17-digit decimals on both sides of 2⁵³, the halfway case
// 9007199254740993, the 1e-6 and 1e21 format boundaries, 19- and
// 20-digit mantissas, the Clinger and Div64 range edges, and signed
// zeros.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "-0.000e-7", "1", "-1", "0.5",
	"0.1", "0.2", "0.30000000000000004", "3.141592653589793",
	"123456789.12345679", "1.7976931348623157e308", "5e-324", "2.2250738585072014e-308",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"900719925474099.3", "90071992547409.93", "4503599627370496.5", "4503599627370497.5",
	"1e-6", "9.999999e-7", "0.000001", "0.0000009999999", "1e21", "1e20",
	"100000000000000000000", "999999999999999999999", "9.99e20",
	"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
	"1.234567890123456789", "1.2345678901234567890", "9999999999999999999e-19",
	"18446744073709551615", "18446744073709551616", "1e22", "1e23", "1e-22", "1e-23",
	"8.98846567431158e307", "1.5e-7", "7.0000000000000001e-7", "12.345678901234567",
	"2.5", "-2.5", "1E5", "1e+05", "1e-05", "6.02214076e23",
}

// TestScanNumberMatchesStrconv checks the exact scanner against
// strconv.ParseFloat bit for bit: on the seed table, on every
// shortest-repr rendering of random float64 bit patterns in both JSON
// formats, and on random decimal strings of up to 20 digits with the
// point anywhere.
func TestScanNumberMatchesStrconv(t *testing.T) {
	check := func(tok string) {
		t.Helper()
		want, werr := strconv.ParseFloat(tok, 64)
		got, n, ok := scanNumber([]byte(tok))
		if ok != (werr == nil) || ok && n != len(tok) {
			t.Fatalf("%q: scanNumber ok=%v n=%d, strconv err %v", tok, ok, n, werr)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanNumber %v (%#x), strconv %v (%#x)",
				tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, s := range numberSeeds {
		check(s)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		b, _ := appendJSONFloat(nil, f)
		check(string(b))
		check(strconv.FormatFloat(f, 'f', -1, 64))
	}
	digits := make([]byte, 0, 24)
	for i := 0; i < 200000; i++ {
		digits = digits[:0]
		nd := 1 + rng.Intn(20)
		for k := 0; k < nd; k++ {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		for len(digits) > 1 && digits[0] == '0' {
			digits = digits[1:]
		}
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			digits = append(digits[:p], append([]byte{'.'}, digits[p:]...)...)
		}
		check(string(digits))
	}
}

// FuzzJSONNumber checks scanNumber against strconv.ParseFloat and the
// JSON grammar: a token the scanner consumes whole is valid JSON and
// parses to the same bits; a valid JSON number in float64 range is
// consumed whole.
func FuzzJSONNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	for _, s := range strictNumbers {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		got, n, ok := scanNumber([]byte(tok))
		whole := ok && n == len(tok)
		want, werr := strconv.ParseFloat(tok, 64)
		isNumber := json.Valid([]byte(tok)) && len(tok) > 0 && (tok[0] == '-' || tok[0] >= '0' && tok[0] <= '9')
		if whole {
			if !isNumber {
				t.Fatalf("%q: scanner accepted a token outside the JSON number grammar", tok)
			}
			if werr != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q: scanner %v (%#x), strconv %v (%#x, err %v)",
					tok, got, math.Float64bits(got), want, math.Float64bits(want), werr)
			}
		}
		if isNumber && werr == nil && !whole {
			t.Fatalf("%q: valid JSON number not read whole (ok=%v n=%d)", tok, ok, n)
		}
	})
}
