package ratest

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/relation"
)

// LoadDatabase reads a database instance from a simple text format:
//
//	relation Student(name: string, major: string)
//	Mary, CS
//	John, ECON
//
//	relation Registration(name: string, course: string, dept: string, grade: int)
//	Mary, 216, CS, 100
//
//	key Student(name)
//	fk Registration(name) -> Student(name)
//
// Lines starting with # are comments. String values may be quoted with
// single quotes (required when they contain commas), a quote inside written
// twice. It returns the instance and the declared constraints; a relation
// declared twice is an error.
func LoadDatabase(r io.Reader) (*Database, []Constraint, error) {
	db := relation.NewDatabase()
	var constraints []Constraint
	var current *relation.Relation
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "relation "):
			name, schema, err := parseRelationDecl(strings.TrimPrefix(line, "relation "))
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if db.Relation(name) != nil {
				return nil, nil, fmt.Errorf("line %d: relation %q declared twice", lineNo, name)
			}
			current = db.CreateRelation(name, schema)
		case strings.HasPrefix(line, "key "):
			rel, attrs, err := parseRelAttrs(strings.TrimPrefix(line, "key "))
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			constraints = append(constraints, relation.Key{Relation: rel, Attrs: attrs})
			current = nil
		case strings.HasPrefix(line, "fk "):
			rest := strings.TrimPrefix(line, "fk ")
			parts := strings.Split(rest, "->")
			if len(parts) != 2 {
				return nil, nil, fmt.Errorf("line %d: foreign key needs \"child(attrs) -> parent(attrs)\"", lineNo)
			}
			cRel, cAttrs, err := parseRelAttrs(strings.TrimSpace(parts[0]))
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			pRel, pAttrs, err := parseRelAttrs(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			constraints = append(constraints, relation.ForeignKey{
				ChildRel: cRel, ChildAttrs: cAttrs, ParentRel: pRel, ParentAttrs: pAttrs})
			current = nil
		case strings.HasPrefix(line, "notnull "):
			rel, attrs, err := parseRelAttrs(strings.TrimPrefix(line, "notnull "))
			if err != nil || len(attrs) != 1 {
				return nil, nil, fmt.Errorf("line %d: notnull needs rel(attr)", lineNo)
			}
			constraints = append(constraints, relation.NotNull{Relation: rel, Attr: attrs[0]})
			current = nil
		default:
			if current == nil {
				return nil, nil, fmt.Errorf("line %d: tuple outside a relation block: %q", lineNo, line)
			}
			vals, err := splitCSV(line)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if len(vals) != current.Schema.Arity() {
				return nil, nil, fmt.Errorf("line %d: %d values for %d columns", lineNo, len(vals), current.Schema.Arity())
			}
			tup := make(Tuple, len(vals))
			for i, v := range vals {
				tup[i] = fieldValue(v, current.Schema.Attrs[i].Type)
			}
			db.Insert(current.Name, tup)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, err
	}
	return db, constraints, nil
}

func parseRelationDecl(s string) (string, Schema, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", Schema{}, fmt.Errorf("bad relation declaration %q", s)
	}
	name := strings.TrimSpace(s[:open])
	var attrs []Attribute
	for _, part := range strings.Split(s[open+1:len(s)-1], ",") {
		bits := strings.SplitN(part, ":", 2)
		if len(bits) != 2 {
			return "", Schema{}, fmt.Errorf("attribute %q needs name: type", part)
		}
		var kind relation.Kind
		switch strings.TrimSpace(strings.ToLower(bits[1])) {
		case "int", "integer":
			kind = relation.KindInt
		case "float", "double", "decimal":
			kind = relation.KindFloat
		case "string", "text", "varchar":
			kind = relation.KindString
		case "bool", "boolean":
			kind = relation.KindBool
		default:
			return "", Schema{}, fmt.Errorf("unknown type %q", bits[1])
		}
		attrs = append(attrs, relation.Attr(strings.TrimSpace(bits[0]), kind))
	}
	return name, relation.Schema{Attrs: attrs}, nil
}

func parseRelAttrs(s string) (string, []string, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("expected rel(attrs), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	var attrs []string
	for _, a := range strings.Split(s[open+1:len(s)-1], ",") {
		attrs = append(attrs, strings.TrimSpace(a))
	}
	return name, attrs, nil
}

// splitCSV splits a comma-separated row, honoring single-quoted fields. A
// field keeps its quotes and doubled quotes: relation.ParseValue undoes them.
func splitCSV(line string) ([]string, error) {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\'':
			if inQuote && i+1 < len(line) && line[i+1] == '\'' {
				b.WriteString("''")
				i++
				continue
			}
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, strings.TrimSpace(b.String()))
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	out = append(out, strings.TrimSpace(b.String()))
	return out, nil
}

// fieldValue reads one trimmed field of a column of the given type: a
// literal as relation.ParseValue reads it, adjusted to the column (ints
// widen to floats). An unquoted field of a string column keeps its text as
// written, so "007", "1.50" and "TRUE" stay those strings.
func fieldValue(field string, kind relation.Kind) Value {
	v := relation.ParseValue(field)
	switch {
	case v.IsNull() || v.Kind() == kind:
		return v
	case kind == relation.KindString:
		return relation.String(field)
	case kind == relation.KindFloat && v.Kind() == relation.KindInt:
		return relation.Float(float64(v.AsInt()))
	}
	return v
}

// DumpDatabase writes a database in the LoadDatabase text format.
func DumpDatabase(w io.Writer, db *Database, constraints []Constraint) error {
	for _, name := range db.Names() {
		r := db.Relation(name)
		fmt.Fprintf(w, "relation %s(", name)
		for i, a := range r.Schema.Attrs {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s: %s", a.Name, a.Type)
		}
		fmt.Fprintln(w, ")")
		for _, t := range r.Tuples {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = v.Quote()
			}
			fmt.Fprintln(w, strings.Join(parts, ", "))
		}
		fmt.Fprintln(w)
	}
	for _, c := range constraints {
		switch k := c.(type) {
		case relation.Key:
			fmt.Fprintf(w, "key %s(%s)\n", k.Relation, strings.Join(k.Attrs, ", "))
		case relation.ForeignKey:
			fmt.Fprintf(w, "fk %s(%s) -> %s(%s)\n", k.ChildRel, strings.Join(k.ChildAttrs, ", "),
				k.ParentRel, strings.Join(k.ParentAttrs, ", "))
		case relation.NotNull:
			fmt.Fprintf(w, "notnull %s(%s)\n", k.Relation, k.Attr)
		}
	}
	return nil
}
