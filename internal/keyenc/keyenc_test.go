package keyenc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestUint64Ordering: a key is the big-endian image of its value's word with
// the sign bit flipped, so keys compare as those unsigned words do. This
// pins the byte layout stored in the trees, which order alone would not.
func TestUint64Ordering(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		ka := AppendInt64(nil, int64(a^(1<<63)))
		kb := AppendInt64(nil, int64(b^(1<<63)))
		if !bytes.Equal(ka, binary.BigEndian.AppendUint64(nil, a)) {
			return false
		}
		return cmpMatches(bytes.Compare(ka, kb), a < b, a == b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64Ordering(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		ka := AppendInt64(nil, a)
		kb := AppendInt64(nil, b)
		return cmpMatches(bytes.Compare(ka, kb), a < b, a == b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloat64Ordering: a double's key never orders two doubles against their
// numeric order, over random bit patterns and random pairs, and an integral
// double keys as the equal int does.
func TestFloat64Ordering(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := bytes.Compare(AppendFloat64(nil, a), AppendFloat64(nil, b))
		return (a > b || c <= 0) && (a < b || c >= 0)
	}, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var vals []float64
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	vals = slices.DeleteFunc(vals, math.IsNaN)
	slices.Sort(vals)
	for i := 1; i < len(vals); i++ {
		if bytes.Compare(AppendFloat64(nil, vals[i-1]), AppendFloat64(nil, vals[i])) > 0 {
			t.Fatalf("%g keys above %g", vals[i-1], vals[i])
		}
	}
	if err := quick.Check(func(v int32) bool {
		return bytes.Equal(AppendFloat64(nil, float64(v)), AppendInt64(nil, int64(v)))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloatSpecials: infinities, doubles beyond the int64 range and the
// integers a double cannot hold exactly key in order, clamped to the int64
// ends; NaN keys at one fixed value.
func TestFloatSpecials(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -1e300, math.Nextafter(-(1 << 63), math.Inf(-1)), -(1 << 63),
		-(1<<53 + 1), -20.5, -1, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1, 20.5, 1<<53 + 1, math.Nextafter(1<<53, math.Inf(1)),
		math.MaxInt64, 1 << 63, math.Nextafter(1<<63, math.Inf(1)), 1e300, math.Inf(1),
	}
	var prev []byte
	for i, v := range vals {
		k := AppendFloat64(nil, v)
		if prev != nil && bytes.Compare(prev, k) > 0 {
			t.Fatalf("ordering broken at %d (%v)", i, v)
		}
		prev = k
	}
	for _, n := range []int64{math.MinInt64, -(1 << 53), -1, 0, 1, 1 << 53, math.MaxInt64 - 1023} {
		if got, want := AppendFloat64(nil, float64(n)), AppendInt64(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("%d as a double keys at %x, want %x", n, got, want)
		}
	}
	ends := []struct {
		v    float64
		want int64
	}{
		{math.Inf(-1), math.MinInt64}, {-1e300, math.MinInt64}, {math.NaN(), math.MinInt64},
		{-20.5, -21}, {20.5, 20},
		{1 << 63, math.MaxInt64}, {1e300, math.MaxInt64}, {math.Inf(1), math.MaxInt64},
	}
	for _, e := range ends {
		got, rest, err := Int64(AppendFloat64(nil, e.v))
		if err != nil || got != e.want || len(rest) != 0 {
			t.Fatalf("%v keys at %d (rest %d, err %v), want %d", e.v, got, len(rest), err, e.want)
		}
	}
}

func TestInt64Roundtrip(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		got, rest, err := Int64(AppendInt64(nil, v))
		return err == nil && got == v && len(rest) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundtripAndOrdering(t *testing.T) {
	if err := quick.Check(func(a, b string) bool {
		ka := AppendString(nil, a)
		kb := AppendString(nil, b)
		ra, _, err := String(ka)
		if err != nil || ra != a {
			return false
		}
		return cmpMatches(bytes.Compare(ka, kb), a < b, a == b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringEmbeddedNUL(t *testing.T) {
	cases := []string{"", "a", "a\x00b", "\x00", "\x00\x00", "ab\x00", "a\xffb"}
	sort.Strings(cases)
	var prev []byte
	for i, s := range cases {
		k := AppendString(nil, s)
		got, rest, err := String(k)
		if err != nil || got != s || len(rest) != 0 {
			t.Fatalf("roundtrip %q: got %q rest %d err %v", s, got, len(rest), err)
		}
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("ordering broken between %q and %q", cases[i-1], s)
		}
		prev = k
	}
}

func TestStringSelfDelimiting(t *testing.T) {
	k := AppendString(nil, "ab")
	k = AppendInt64(k, 42)
	s, rest, err := String(k)
	if err != nil || s != "ab" {
		t.Fatalf("String: %q %v", s, err)
	}
	v, _, err := Int64(rest)
	if err != nil || v != 42 {
		t.Fatalf("trailing Int64: %d %v", v, err)
	}
}

func TestCompositeSourceTime(t *testing.T) {
	// Composite ordering: primary by source, secondary by timestamp.
	k1 := SourceTime(1, 999999)
	k2 := SourceTime(2, -5)
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("source must dominate timestamp in ordering")
	}
	k3 := SourceTime(2, -4)
	if bytes.Compare(k2, k3) >= 0 {
		t.Fatal("timestamp must break ties")
	}
	s, ts, err := DecodeSourceTime(k2)
	if err != nil || s != 2 || ts != -5 {
		t.Fatalf("decode: %d %d %v", s, ts, err)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0x00, 0x00}, []byte{0x00, 0x01}},
	}
	for _, c := range cases {
		got := PrefixSuccessor(c.in)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("PrefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	// Every key with prefix p is < PrefixSuccessor(p).
	p := AppendInt64(nil, 7)
	succ := PrefixSuccessor(p)
	ext := append(append([]byte(nil), p...), 0xFF, 0xFF, 0xFF)
	if bytes.Compare(ext, succ) >= 0 {
		t.Fatal("extension of prefix not below successor")
	}
}

func TestShortKeyErrors(t *testing.T) {
	if _, _, err := Int64([]byte{1, 2}); err == nil {
		t.Fatal("short Int64 accepted")
	}
	if _, _, err := Int64(nil); err == nil {
		t.Fatal("empty Int64 accepted")
	}
	if _, _, err := String([]byte{'a'}); err == nil {
		t.Fatal("unterminated String accepted")
	}
	if _, _, err := String([]byte{0x00, 0x42}); err == nil {
		t.Fatal("corrupt escape accepted")
	}
}

func cmpMatches(cmp int, less, eq bool) bool {
	switch {
	case less:
		return cmp < 0
	case eq:
		return cmp == 0
	default:
		return cmp > 0
	}
}
