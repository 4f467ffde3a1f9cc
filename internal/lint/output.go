package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// relPath renders an absolute finding path relative to the program
// root, with forward slashes, so output is stable across machines.
func relPath(root, path string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) && rel != ".." && !startsWithDotDot(rel) {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

func startsWithDotDot(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// WriteText renders findings in the classic one-line-per-finding form:
//
//	path:line:col: [check] message
func WriteText(w io.Writer, root string, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Message); err != nil {
			return err
		}
	}
	return nil
}

// SARIF 2.1.0 structures — only the subset stamplint emits.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log, one run, one rule
// per analyzer (plus the synthetic "annotation" rule for suppression
// hygiene findings).
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, findings []Finding) error {
	rules := []sarifRule{}
	seen := map[string]bool{}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
		seen[a.Name] = true
	}
	// Findings can carry checks outside the analyzer list (the
	// "annotation" hygiene check); declare those rules too.
	extra := map[string]bool{}
	for _, f := range findings {
		if !seen[f.Check] && !extra[f.Check] {
			extra[f.Check] = true
		}
	}
	var extraNames []string
	for name := range extra {
		extraNames = append(extraNames, name)
	}
	sort.Strings(extraNames)
	for _, name := range extraNames {
		doc := "stamplint finding"
		if name == "annotation" {
			doc = "unused or malformed //stamplint:allow suppression annotation"
		}
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: doc}})
	}

	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Check,
			Level:   "warning",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(root, f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "stamplint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
