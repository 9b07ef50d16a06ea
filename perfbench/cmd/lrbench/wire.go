package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"lrcex/internal/core"
	"lrcex/internal/grammar"
	"lrcex/perfbench/ledger"
)

// wireResponse is the part of an /v1/analyze or /v1/repair reply the checks
// read; decoding only these fields keeps the client's share of the CPUs
// small.
type wireResponse struct {
	Fingerprint   string `json:"fingerprint"`
	Cached        bool   `json:"cached"`
	CompileCached bool   `json:"compile_cached"`
	Partial       bool   `json:"partial"`
	Conflicts     []struct {
		State   int      `json:"state"`
		Kind    string   `json:"kind"`
		Symbol  string   `json:"symbol"`
		Symbols []string `json:"symbols"`
		Item1   string   `json:"item1"`
		Item2   string   `json:"item2"`
	} `json:"conflicts"`
	Examples []struct {
		Conflict int    `json:"conflict"`
		Kind     string `json:"kind"`
	} `json:"examples"`
	Repair *struct {
		Candidates  int  `json:"candidates"`
		Validated   int  `json:"validated"`
		Partial     bool `json:"partial"`
		PerConflict []struct {
			Suggestions []struct {
				ID           string `json:"id"`
				Validated    bool   `json:"validated"`
				ProbesBroken int    `json:"probes_broken"`
			} `json:"suggestions"`
		} `json:"per_conflict"`
	} `json:"repair"`
}

// nameMap translates the symbol names a grammar's replies use into the
// golden reports' normalized names (core.NameNormalizer). Only symbols that
// occur in the golden's conflict coordinates are kept; any other name is
// left as it is and so cannot match.
type nameMap map[string]string

func newNameMap(g *grammar.Grammar, recs []ledger.Record) nameMap {
	used := map[string]bool{}
	for _, r := range recs {
		for _, s := range []string{r.Sym, r.Syms, r.Item1, r.Item2} {
			for _, tok := range strings.Fields(s) {
				used[tok] = true
			}
		}
	}
	nm := core.NewNameNormalizer(g)
	out := nameMap{}
	for s := 0; s < g.NumSymbols(); s++ {
		if norm := nm.Name(grammar.Sym(s)); used[norm] {
			out[g.Name(grammar.Sym(s))] = norm
		}
	}
	return out
}

func (m nameMap) tokens(s string) string {
	f := strings.Fields(s)
	for i, tok := range f {
		if n, ok := m[tok]; ok {
			f[i] = n
		}
	}
	return strings.Join(f, " ")
}

// outcomes converts a reply into golden coordinates and outcome kinds.
func (w *wireResponse) outcomes(m nameMap, withState bool) ([]ledger.Outcome, error) {
	if len(w.Examples) != len(w.Conflicts) {
		return nil, fmt.Errorf("%d examples for %d conflicts", len(w.Examples), len(w.Conflicts))
	}
	out := make([]ledger.Outcome, 0, len(w.Examples))
	for _, ex := range w.Examples {
		if ex.Conflict < 0 || ex.Conflict >= len(w.Conflicts) {
			return nil, fmt.Errorf("example for conflict %d of %d", ex.Conflict, len(w.Conflicts))
		}
		c := w.Conflicts[ex.Conflict]
		syms := c.Symbols
		if len(syms) == 0 {
			syms = []string{c.Symbol}
		}
		r := ledger.Record{
			ConflictKind: c.Kind,
			State:        c.State,
			Sym:          m.tokens(c.Symbol),
			Syms:         m.tokens(strings.Join(syms, " ")),
			Item1:        m.tokens(c.Item1),
			Item2:        m.tokens(c.Item2),
			Kind:         ex.Kind,
		}
		out = append(out, ledger.Outcome{Coord: r.Coord(withState), Kind: r.Kind})
	}
	return out, nil
}

func (w *wireResponse) unifying() int {
	n := 0
	for _, ex := range w.Examples {
		if ex.Kind == core.Unifying.String() {
			n++
		}
	}
	return n
}

// survivingBreaking counts validated repair suggestions whose probe replay
// broke a counterexample sentence: a fix that changes the language.
func (w *wireResponse) survivingBreaking() int {
	n := 0
	if w.Repair == nil {
		return 0
	}
	for _, pc := range w.Repair.PerConflict {
		for _, s := range pc.Suggestions {
			if s.Validated && s.ProbesBroken > 0 {
				n++
			}
		}
	}
	return n
}

func decodeResponse(b []byte) (*wireResponse, error) {
	var w wireResponse
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	return &w, nil
}
