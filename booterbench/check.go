package main

import (
	"fmt"
	"strconv"
	"strings"
)

// panel is the subset of /v1/panel the benchmark checks.
type panel struct {
	Through *string `json:"through"`
	Final   bool    `json:"final"`
	Attacks int     `json:"attacks"`
	Series  struct {
		Start  string    `json:"start"`
		Values []float64 `json:"values"`
	} `json:"series"`
}

// panelMismatch compares the first weeks of a served weekly panel with
// the scenario's planned counts and reports the first difference. The
// scenario generator makes every sealed week exact, so any difference is
// a wrong answer, never noise.
func panelMismatch(planned, served []float64, weeks int) error {
	if weeks > len(planned) {
		return fmt.Errorf("panel check over %d weeks, plan has %d", weeks, len(planned))
	}
	if weeks > len(served) {
		return fmt.Errorf("served panel has %d weeks, want at least %d", len(served), weeks)
	}
	for w := 0; w < weeks; w++ {
		if served[w] != planned[w] {
			return fmt.Errorf("week %d: served %v attacks, planned %v", w, served[w], planned[w])
		}
	}
	return nil
}

// metricSum adds up every sample of one family in a Prometheus text
// exposition (all label sets); found is false when the family is absent.
func metricSum(text, family string) (sum float64, found bool, err error) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family name sharing the prefix
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, false, fmt.Errorf("metric %s: %w", family, err)
		}
		sum += v
		found = true
	}
	return sum, found, nil
}
