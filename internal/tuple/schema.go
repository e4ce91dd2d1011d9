package tuple

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation schema.
type Column struct {
	// Name is the attribute name, unique within its schema.
	Name string
	// Type is the kind of values stored in this column.
	Type Kind
	// Key marks the primary-key column of the relation (at most one).
	Key bool
	// Score marks a scoring attribute: a column whose value contributes to
	// the dynamic component of result scores. Relations with a Score column
	// are "streamable" in the paper's sense (§5.1.1) because reading them in
	// nonincreasing Score order tightens thresholds.
	Score bool
}

// Schema is an ordered list of columns with a relation name. Schemas are
// immutable after construction.
type Schema struct {
	name   string
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema. Column names must be unique; duplicates panic,
// since schemas are always constructed from trusted generators or literals.
func NewSchema(name string, cols ...Column) *Schema {
	s := &Schema{name: name, cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("tuple: schema %q has duplicate column %q", name, c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// ScoreCol returns the index of the scoring attribute, or -1 if the relation
// has none (in which case the relation is a probe-only source unless small,
// per §5.1.1's heuristic).
func (s *Schema) ScoreCol() int {
	for i, c := range s.cols {
		if c.Score {
			return i
		}
	}
	return -1
}

// KeyCol returns the index of the primary-key column, or -1.
func (s *Schema) KeyCol() int {
	for i, c := range s.cols {
		if c.Key {
			return i
		}
	}
	return -1
}

// HasScore reports whether the schema declares a scoring attribute.
func (s *Schema) HasScore() bool { return s.ScoreCol() >= 0 }

// String renders the schema as name(col:type, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(':')
		b.WriteString(c.Type.String())
		if c.Key {
			b.WriteString("*")
		}
		if c.Score {
			b.WriteString("^")
		}
	}
	b.WriteByte(')')
	return b.String()
}
