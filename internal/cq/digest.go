package cq

import (
	"math"
	"math/bits"

	"repro/internal/tuple"
)

// Digest fingerprints the member queries in order: each CQ's id and UQ id,
// its atoms (relation, database, every term's kind and value bits), its
// scoring model (aggregation, static part and weights as bits, label) and
// its head vars. Two expansions with equal digests built the same queries
// with the same coefficients, up to a 64-bit collision; a shard that
// re-instantiated a query compares its digest with the front desk's. It
// does not allocate.
func (u *UQ) Digest() uint64 {
	d := digest(0x27d4eb2f165667c5).word(uint64(len(u.CQs)))
	for _, q := range u.CQs {
		d = d.str(q.ID).str(q.UQID).word(uint64(len(q.Atoms)))
		for _, a := range q.Atoms {
			d = d.str(a.Rel).str(a.DB).word(uint64(len(a.Args)))
			for _, t := range a.Args {
				if !t.IsConst() {
					d = d.word(0).word(uint64(t.Var))
					continue
				}
				v := t.Const
				d = d.word(1 + uint64(v.Kind()))
				switch v.Kind() {
				case tuple.KindInt:
					d = d.word(uint64(v.AsInt()))
				case tuple.KindFloat:
					d = d.word(math.Float64bits(v.AsFloat()))
				case tuple.KindString:
					d = d.str(v.AsString())
				}
			}
		}
		if m := q.Model; m == nil {
			d = d.word(0)
		} else {
			d = d.word(1 + uint64(m.AggKind)).word(math.Float64bits(m.Static)).word(uint64(len(m.Weights)))
			for _, w := range m.Weights {
				d = d.word(math.Float64bits(w))
			}
			d = d.str(m.Label)
		}
		d = d.word(uint64(len(q.HeadVars)))
		for _, v := range q.HeadVars {
			d = d.word(uint64(v))
		}
	}
	return uint64(d)
}

// digest folds 64-bit words into one, a word per multiply-rotate round (the
// xxHash64 round); it is a fingerprint against accidental mismatch, not a
// defence against a chosen collision.
type digest uint64

func (d digest) word(w uint64) digest {
	return digest(bits.RotateLeft64(uint64(d)^(w*0xc2b2ae3d27d4eb4f), 31) * 0x9e3779b185ebca87)
}

// str folds a string's length, then its bytes eight at a time.
func (d digest) str(s string) digest {
	d = d.word(uint64(len(s)))
	for len(s) >= 8 {
		d = d.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return d.word(w)
}
