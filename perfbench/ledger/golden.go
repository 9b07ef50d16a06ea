package ledger

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Record is one conflict's entry in a golden canonical report (the format
// core.CanonicalReport writes): the conflict's coordinates with normalized
// symbol names and the outcome the search reached.
type Record struct {
	ConflictKind string // "shift/reduce" or "reduce/reduce"
	State        int
	Sym          string
	Syms         string // lookahead symbols, space-separated
	Item1, Item2 string
	Kind         string // outcome: "unifying", "nonunifying (timeout)", ...
}

// Coord names the conflict. With state the key is exact; without it the key
// survives a renumbering of the automaton's states, which a GDL print and
// re-parse of a renamed grammar causes.
func (r Record) Coord(withState bool) string {
	st := ""
	if withState {
		st = fmt.Sprintf(" state=%d", r.State)
	}
	return fmt.Sprintf("%s%s sym=%s syms=(%s) | %s | %s", r.ConflictKind, st, r.Sym, r.Syms, r.Item1, r.Item2)
}

// ParseGolden parses a canonical report into its records.
func ParseGolden(text string) ([]Record, error) {
	var out []Record
	for _, block := range strings.Split(strings.TrimSpace(text), "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var r Record
		for _, line := range strings.Split(block, "\n") {
			key, val, ok := strings.Cut(line, ": ")
			if !ok {
				return nil, fmt.Errorf("golden: malformed line %q", line)
			}
			switch key {
			case "conflict":
				if err := r.parseConflict(val); err != nil {
					return nil, err
				}
			case "item1":
				r.Item1 = val
			case "item2":
				r.Item2 = val
			case "kind":
				r.Kind = val
			}
		}
		if r.ConflictKind == "" || r.Kind == "" {
			return nil, fmt.Errorf("golden: record without conflict or kind: %q", block)
		}
		out = append(out, r)
	}
	return out, nil
}

// parseConflict reads "shift/reduce state=15 sym=t8 syms=(t8)".
func (r *Record) parseConflict(val string) error {
	kind, rest, ok := strings.Cut(val, " state=")
	if !ok {
		return fmt.Errorf("golden: malformed conflict %q", val)
	}
	st, rest, ok := strings.Cut(rest, " sym=")
	if !ok {
		return fmt.Errorf("golden: malformed conflict %q", val)
	}
	sym, syms, ok := strings.Cut(rest, " syms=(")
	if !ok || !strings.HasSuffix(syms, ")") {
		return fmt.Errorf("golden: malformed conflict %q", val)
	}
	n, err := strconv.Atoi(st)
	if err != nil {
		return fmt.Errorf("golden: state in %q: %w", val, err)
	}
	r.ConflictKind, r.State, r.Sym, r.Syms = kind, n, sym, strings.TrimSuffix(syms, ")")
	return nil
}

// Outcome pairs a conflict coordinate with the outcome kind reported for it.
type Outcome struct{ Coord, Kind string }

// Outcomes lists the records' coordinates and kinds.
func Outcomes(recs []Record, withState bool) []Outcome {
	out := make([]Outcome, len(recs))
	for i, r := range recs {
		out[i] = Outcome{Coord: r.Coord(withState), Kind: r.Kind}
	}
	return out
}

// CountUnifying returns how many records have a unifying outcome.
func CountUnifying(recs []Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind == "unifying" {
			n++
		}
	}
	return n
}

func byCoord(os []Outcome) map[string][]string {
	m := map[string][]string{}
	for _, o := range os {
		m[o.Coord] = append(m[o.Coord], o.Kind)
	}
	for _, ks := range m {
		sort.Strings(ks)
	}
	return m
}

// DiffOutcomes returns "" when got holds exactly the coordinates of want,
// each with the same outcome kinds; otherwise it describes the first
// difference.
func DiffOutcomes(want, got []Outcome) string {
	return compare(want, got, func(w, g []string) bool {
		return strings.Join(w, "\x00") == strings.Join(g, "\x00")
	})
}

// DiffUnifyingSubset returns "" when got holds exactly the coordinates of
// want and, at each coordinate, reports no more unifying outcomes than want
// does: a smaller search budget may miss a unifying example the golden
// budget finds, but it may never claim one the golden does not have.
func DiffUnifyingSubset(want, got []Outcome) string {
	unif := func(ks []string) int {
		n := 0
		for _, k := range ks {
			if k == "unifying" {
				n++
			}
		}
		return n
	}
	return compare(want, got, func(w, g []string) bool {
		return len(w) == len(g) && unif(g) <= unif(w)
	})
}

func compare(want, got []Outcome, same func(w, g []string) bool) string {
	wm, gm := byCoord(want), byCoord(got)
	coords := make([]string, 0, len(wm)+len(gm))
	for c := range wm {
		coords = append(coords, c)
	}
	for c := range gm {
		if _, ok := wm[c]; !ok {
			coords = append(coords, c)
		}
	}
	sort.Strings(coords)
	for _, c := range coords {
		w, g := wm[c], gm[c]
		if len(w) != len(g) || !same(w, g) {
			return fmt.Sprintf("conflict %s: want %q, got %q", c, w, g)
		}
	}
	return ""
}
