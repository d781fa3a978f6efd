package core

import (
	"encoding/json"
	"fmt"
	"io"

	"idldp/internal/budget"
	"idldp/internal/mech"
	"idldp/internal/notion"
	"idldp/internal/opt"
)

// In a real deployment the solved perturbation probabilities must be
// identical on every client and on the server. The solvers are
// deterministic, but re-solving on each device risks numerical drift
// across platforms: math.Exp and math.Log run in assembly on some and in
// pure Go on others, and a compiler may fuse a multiply and an add into
// one rounding. SavedParams serializes the complete mechanism definition;
// NewFromSaved rebuilds an engine from it without re-solving,
// re-verifying the privacy constraints on load.

// SavedParams is the serializable mechanism definition.
type SavedParams struct {
	LevelEps      []float64 `json:"level_eps"`
	LevelOf       []int     `json:"level_of"`
	A             []float64 `json:"a"`      // per level
	B             []float64 `json:"b"`      // per level
	Notion        string    `json:"notion"` // "min", "avg", or "max"
	PaddingLength int       `json:"padding_length"`
}

// NotionByName maps the wire names to notion implementations.
func NotionByName(name string) (notion.Notion, error) {
	switch name {
	case "", "min":
		return notion.MinID{}, nil
	case "avg":
		return notion.AvgID{}, nil
	case "max":
		return notion.MaxID{}, nil
	default:
		return nil, fmt.Errorf("core: unknown notion %q (want min, avg, or max)", name)
	}
}

func notionName(n notion.Notion) string {
	switch n.(type) {
	case notion.AvgID:
		return "avg"
	case notion.MaxID:
		return "max"
	default:
		return "min"
	}
}

// Save captures the engine's mechanism definition.
func (e *Engine) Save() SavedParams {
	asgn := e.cfg.Budgets
	levelOf := make([]int, asgn.M())
	for i := range levelOf {
		levelOf[i] = asgn.LevelOf(i)
	}
	return SavedParams{
		LevelEps:      asgn.LevelEpsAll(),
		LevelOf:       levelOf,
		A:             append([]float64(nil), e.params.A...),
		B:             append([]float64(nil), e.params.B...),
		Notion:        notionName(e.cfg.Notion),
		PaddingLength: e.cfg.PaddingLength,
	}
}

// WriteJSON serializes the parameters.
func (sp SavedParams) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sp); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// ReadSavedParams deserializes parameters written by WriteJSON.
func ReadSavedParams(r io.Reader) (SavedParams, error) {
	var sp SavedParams
	if err := json.NewDecoder(r).Decode(&sp); err != nil {
		return SavedParams{}, fmt.Errorf("core: %w", err)
	}
	return sp, nil
}

// NewFromSaved rebuilds an engine from saved parameters without
// re-solving. The privacy constraints are re-verified against the
// declared notion — tampered or corrupted parameter files are rejected.
func NewFromSaved(sp SavedParams) (*Engine, error) {
	asgn, err := budget.FromLevels(sp.LevelOf, sp.LevelEps)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n, err := NotionByName(sp.Notion)
	if err != nil {
		return nil, err
	}
	if len(sp.A) != asgn.T() || len(sp.B) != asgn.T() {
		return nil, fmt.Errorf("core: %d-level parameters for %d levels", len(sp.A), asgn.T())
	}
	if err := notion.VerifyUE(sp.A, sp.B, asgn.LevelEpsAll(), n, 1e-6); err != nil {
		return nil, fmt.Errorf("core: saved parameters fail verification: %w", err)
	}
	params := opt.LevelParams{
		A:         append([]float64(nil), sp.A...),
		B:         append([]float64(nil), sp.B...),
		Objective: opt.WorstCaseObjective(sp.A, sp.B, asgn.LevelCounts()),
	}
	ue, err := mech.NewIDUE(params, asgn)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		cfg:    Config{Budgets: asgn, Notion: n, PaddingLength: sp.PaddingLength},
		params: params,
		ue:     ue,
	}
	if sp.PaddingLength > 0 {
		if err := e.buildSetMech(); err != nil {
			return nil, err
		}
	}
	return e, nil
}
