package serve

import (
	"math"
	"math/bits"
	"strconv"
)

// scanNumber reads one JSON number from the front of b and returns its
// float64 value, bit-identical to strconv.ParseFloat (and so to
// encoding/json), and the token's length. ok is false when b does not
// start with a number in the JSON grammar
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// or when the value is out of float64 range; the token then needs
// encoding/json, which fails on it the same way. The next byte is left
// to the caller, so "01" reads as the token "0" followed by a stray "1".
//
// The scan collects up to 19 significant digits into a uint64 m and a
// decimal exponent e, then rounds to 53 bits once:
//
//   - m < 2⁵³ and |e| ≤ 22: Clinger's fast path. m and 10^|e| are both
//     exact float64s, so one IEEE multiply or divide rounds correctly.
//   - -19 ≤ e < 0: m / 10^-e as an exact 128-by-64-bit quotient
//     (bits.Div64) of at least 63 bits, rounded to nearest-even with the
//     remainder as sticky bit.
//
// Every other token (more than 19 significant digits, a large exponent,
// 16+ digit integers) goes to strconv.ParseFloat on the delimited bytes.
// Wire floats are shortest-repr renderings of values in [1e-6, 1e21),
// so they almost never do.
func scanNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) {
		return 0, 0, false
	}
	var (
		m    uint64
		nd   int  // significant digits in m
		e    int  // decimal exponent of m
		slow bool // more than 19 significant digits
	)
	switch c := b[i]; {
	case c == '0':
		i++
	case c >= '1' && c <= '9':
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if nd == 19 {
				slow = true
				continue
			}
			m = m*10 + uint64(d)
			nd++
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if m == 0 && d == 0 { // leading zero: scale only
				e--
				continue
			}
			if nd == 19 {
				slow = true
				continue
			}
			m = m*10 + uint64(d)
			nd++
			e--
		}
		if i == start {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		x := 0
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if x < 10000 { // saturate: any larger exponent is slow anyway
				x = x*10 + int(d)
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			x = -x
		}
		e += x
	}
	switch {
	case slow:
	case m == 0:
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	case m < 1<<53 && e >= -22 && e <= 22:
		f = float64(m)
		if e > 0 {
			f *= float64pow10[e]
		} else if e < 0 {
			f /= float64pow10[-e]
		}
		if neg {
			f = -f
		}
		return f, i, true
	case e < 0 && e >= -19:
		f = divPow10(m, uint64pow10[-e])
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}

// divPow10 returns m/p correctly rounded, for 0 < m < 2⁶⁴ and p a power
// of ten in [10, 10¹⁹]. The shift s puts the quotient of m·2ˢ / p in
// (2⁶², 2⁶⁴), which leaves 10 or 11 guard bits below the 53 kept; the
// division remainder is the sticky bit. The result is in
// [10⁻¹⁹, 10¹⁸], far inside the normal range, so the bits are
// assembled directly.
func divPow10(m, p uint64) float64 {
	s := uint(63 + bits.Len64(p) - bits.Len64(m))
	var hi, lo uint64
	if s >= 64 {
		hi = m << (s - 64)
	} else {
		hi, lo = m>>(64-s), m<<s
	}
	q, r := bits.Div64(hi, lo, p) // hi < p because the quotient fits in 64 bits
	shift := uint(bits.Len64(q) - 53)
	mant := q >> shift
	rem := q & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || rem == half && (r != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			shift++
		}
	}
	exp := int(shift) - int(s) + 52 + 1023
	return math.Float64frombits(uint64(exp)<<52 | mant&(1<<52-1))
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

var uint64pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}
