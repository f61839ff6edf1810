// Package expected pins the benchmark's inputs: the digest of what each
// workload's generator produces for the seeds the baseline records use. The
// harness verifies them on start, so a change to a generator or to training
// reports "inputs changed" instead of silently measuring different work.
package expected

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

//go:embed inputs.json
var inputsJSON []byte

// Inputs maps size ("full" or "short") to seed to workload to input digest.
type Inputs map[string]map[string]map[string]string

// Load parses the pinned digests.
func Load() (Inputs, error) {
	var in Inputs
	if err := json.Unmarshal(inputsJSON, &in); err != nil {
		return nil, fmt.Errorf("bench/expected/inputs.json: %w", err)
	}
	return in, nil
}

// Digest returns the pinned digest of a workload's inputs, if that size and
// seed are pinned.
func (in Inputs) Digest(short bool, seed int64, workload string) (string, bool) {
	size := "full"
	if short {
		size = "short"
	}
	d, ok := in[size][strconv.FormatInt(seed, 10)][workload]
	return d, ok
}
