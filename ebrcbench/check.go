package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds the per-job result digests of every workload at the
// default seed and full horizon.
type goldenFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// checker applies the output checks to every pass of a run and keeps
// the attempted/failed tally.
type checker struct {
	o      options
	golden map[string]string
	// ref holds each job's first result in this run, per pass kind.
	ref       map[string]jobResult
	attempted int
	failed    int
	problems  []string
}

func newChecker(o options) (*checker, error) {
	c := &checker{o: o, ref: map[string]jobResult{}}
	if o.seed == defaultSeed && o.horizon == 1 && !o.golden {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return nil, fmt.Errorf("golden digests: %w", err)
		}
		c.golden = g.Workloads[o.workload]
		if c.golden == nil {
			return nil, fmt.Errorf("no golden digests for workload %s", o.workload)
		}
	}
	return c, nil
}

func (c *checker) fail(job, why string) {
	c.failed++
	c.problems = append(c.problems, job+": "+why)
}

// check applies the untraced checks: the job ran (its leak ledger held
// and, when sharded, its resumed run reproduced it), its digest, event
// count and churn pool counts are the same in every pass of this run,
// and at the default seed its digest matches the golden digest.
func (c *checker) check(pass string, rep *passReport) {
	for _, j := range rep.Jobs {
		c.attempted++
		key := pass + "/" + j.Name
		switch prev, seen := c.ref[key]; {
		case j.Err != "":
			c.fail(j.Name, j.Err)
		case seen && (prev.Digest != j.Digest || prev.Events != j.Events ||
			prev.Constructions != j.Constructions || prev.Reclaimed != j.Reclaimed):
			c.fail(j.Name, fmt.Sprintf("digest %s, %d events, %d/%d constructed/reclaimed differ from an earlier pass's %s, %d, %d/%d",
				j.Digest, j.Events, j.Constructions, j.Reclaimed, prev.Digest, prev.Events, prev.Constructions, prev.Reclaimed))
		case pass == "wall" && c.golden != nil && c.golden[j.Name] != j.Digest:
			c.fail(j.Name, fmt.Sprintf("digest %s differs from the golden %q", j.Digest, c.golden[j.Name]))
		default:
			c.ref[key] = j
		}
	}
}

// checkTraced counts a traced pass's jobs; a job that failed or did not
// reproduce its untraced run fails.
func (c *checker) checkTraced(rep *passReport) {
	for _, j := range rep.Jobs {
		c.attempted++
		if j.Err != "" {
			c.fail(j.Name, "traced: "+j.Err)
		}
	}
}

func (c *checker) passRate() float64 {
	return ratio(float64(c.attempted-c.failed), float64(c.attempted))
}

func (c *checker) summary() string {
	return fmt.Sprintf("%d of %d jobs failed:\n  %s", c.failed, c.attempted,
		strings.Join(c.problems, "\n  "))
}

// writeGolden records the digests of this run's untraced passes as the
// golden digests of the workload in ebrcbench/golden.json (relative to
// the repository root), keeping the file's other workloads.
func (c *checker) writeGolden() error {
	const path = "ebrcbench/golden.json"
	var g goldenFile
	if err := readJSON(path, &g); err != nil {
		return err
	}
	if g.Workloads == nil {
		g.Workloads = map[string]map[string]string{}
	}
	g.Seed = c.o.seed
	d := map[string]string{}
	for key, j := range c.ref {
		if name, ok := strings.CutPrefix(key, "wall/"); ok {
			d[name] = j.Digest
		}
	}
	g.Workloads[c.o.workload] = d
	return writeJSON(path, g)
}
