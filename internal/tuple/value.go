// Package tuple provides the value, schema and tuple substrate shared by
// every layer of the system: the simulated remote databases, the middleware
// operators, and the scoring models.
//
// Values are small tagged unions (int64 / float64 / string / null) so that
// join keys, similarity scores and text payloads can live in one column
// representation without reflection. Tuples are immutable after construction;
// operators share pointers freely.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the column/value types understood by the system.
type Kind uint8

const (
	// KindNull is the zero Kind; it marks absent values.
	KindNull Kind = iota
	// KindInt holds 64-bit integers (identifiers, join keys, years).
	KindInt
	// KindFloat holds 64-bit floats (similarity scores).
	KindFloat
	// KindString holds text payloads (names, terms, descriptions).
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding a single column value. The zero Value is
// null. Values are comparable with == only through Equal (floats require
// care); they are usable as map keys via Key.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value. (Constructor; the fmt.Stringer method is
// named Text to avoid colliding with this constructor's conventional name.)
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it is 0 unless Kind is KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload. For KindInt values it converts, which
// lets score attributes be declared as either numeric kind.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; it is "" unless Kind is KindString.
func (v Value) AsString() string { return v.s }

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	default:
		return v.s == o.s
	}
}

// Less orders values of the same kind (null < int < float < string across
// kinds, payload order within a kind). It provides the deterministic order
// used by canonicalization and result tie-breaking.
func (v Value) Less(o Value) bool {
	if v.kind != o.kind {
		return v.kind < o.kind
	}
	switch v.kind {
	case KindNull:
		return false
	case KindInt:
		return v.i < o.i
	case KindFloat:
		return v.f < o.f
	default:
		return v.s < o.s
	}
}

// Key returns a compact string usable as a hash-index key. Distinct values
// map to distinct keys within a kind; int and float payloads are prefixed so
// Int(1) and Float(1) do not collide.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 36)
	case KindFloat:
		return "f" + strconv.FormatUint(math.Float64bits(v.f), 36)
	default:
		return "s" + v.s
	}
}

// IndexKey is the comparable, allocation-free form of a Value used as a hash
// map key by the middleware's join indexes and probe caches. Distinct values
// map to distinct keys within and across kinds (Int(1), Float(1) and
// String("1") all differ); float payloads are keyed by their bit pattern, so
// NaN keys behave deterministically rather than vanishing the way a NaN map
// key would.
type IndexKey struct {
	kind Kind
	num  uint64
	str  string
}

// IndexKey returns the value's map key. Unlike Key it performs no string
// formatting, which is what keeps per-insert/per-probe work allocation-free.
func (v Value) IndexKey() IndexKey {
	switch v.kind {
	case KindNull:
		return IndexKey{kind: KindNull}
	case KindInt:
		return IndexKey{kind: KindInt, num: uint64(v.i)}
	case KindFloat:
		return IndexKey{kind: KindFloat, num: math.Float64bits(v.f)}
	default:
		return IndexKey{kind: KindString, str: v.s}
	}
}

// Word returns a 64-bit hash of the key: an int's or a float's bits, 0 for
// null, the FNV-1a hash of a string. Distinct keys of one kind, strings
// aside, have distinct words; across kinds (null and +0.0 share 0) and
// between strings they may collide, so a table keyed by words confirms a
// match by comparing keys.
func (k IndexKey) Word() uint64 {
	if k.kind == KindString {
		return fnv1a(k.str)
	}
	return k.num
}

// Text renders the value for display.
func (v Value) Text() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', 6, 64)
	default:
		return v.s
	}
}
