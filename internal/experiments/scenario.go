package experiments

import (
	"context"
	"sort"

	"repro/internal/runner"
)

// FoldFunc assembles a scenario's output tables from its job results.
// Results arrive in the same order the jobs were expanded, regardless
// of the execution schedule, so folding is deterministic.
type FoldFunc func(results []any) []*Table

// PlanFunc expands a scenario under a sizing into independent runner
// jobs plus the fold that assembles the tables.
type PlanFunc func(sz Sizing) ([]runner.Job, FoldFunc)

// Scenario declaratively describes one experiment of the paper's
// evaluation section: a name (the CLI handle), a note, and a plan that
// expands into jobs. Every job is self-contained — it captures its own
// SimConfig (or Monte Carlo config) and deterministic seed — so a
// scenario produces byte-identical tables whether its jobs run
// serially or on a worker pool.
type Scenario struct {
	// Name is the registry key ("fig5", "claim4", ...).
	Name string
	// Note is a one-line description for listings.
	Note string
	// Plan expands the scenario into jobs and a fold.
	Plan PlanFunc
	// Sharded marks scenarios whose simulations honor Sizing.Shards by
	// running on the space-parallel sharded engine (the multi-hop,
	// routed-reverse and scale-out families). Listings report it as an
	// available executor mode.
	Sharded bool
}

// Modes returns the executor modes the scenario supports, for listings:
// every scenario runs serially and on the job-level worker pool; the
// Sharded ones additionally split each simulation across shards.
func (s *Scenario) Modes() string {
	if s.Sharded {
		return "serial,parallel,sharded"
	}
	return "serial,parallel"
}

// Run expands the scenario under sz and executes its jobs on ex,
// returning the assembled tables. Under a hardened executor (a
// runner.Pool with a JobDeadline) a partial failure still folds: the
// surviving results become tables — every fold skips nil slots — and
// the *runner.Manifest comes back alongside them, so callers can render
// what completed and report exactly which (index, seed) jobs died.
func (s *Scenario) Run(ctx context.Context, sz Sizing, ex runner.Executor) ([]*Table, error) {
	tables, _, err := s.RunObserved(ctx, sz, ex)
	return tables, err
}

// registry maps scenario names to their definitions. It is populated
// at init time by figures.go and immutable afterwards.
var registry = map[string]*Scenario{}

func register(s *Scenario) {
	if _, dup := registry[s.Name]; dup {
		panic("experiments: duplicate scenario " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup returns the named scenario.
func Lookup(name string) (*Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Scenarios returns every registered scenario sorted by name.
func Scenarios() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the sorted registry keys.
func ScenarioNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runPlan executes a plan serially; the compatibility wrappers
// (Fig1 ... Claim4) are built on it. Serial execution of deterministic
// jobs can only fail through a job panic, which is re-raised.
func runPlan(p PlanFunc, sz Sizing) []*Table {
	jobs, fold := p(sz)
	results, err := runner.Serial{}.Execute(context.Background(), jobs)
	if err != nil {
		panic(err)
	}
	return fold(results)
}

// combinePlans concatenates several plans into one: the jobs run as a
// single batch and each sub-plan folds its own slice of the results.
func combinePlans(plans ...PlanFunc) PlanFunc {
	return func(sz Sizing) ([]runner.Job, FoldFunc) {
		var jobs []runner.Job
		folds := make([]FoldFunc, len(plans))
		lens := make([]int, len(plans))
		for i, p := range plans {
			j, f := p(sz)
			jobs = append(jobs, j...)
			folds[i] = f
			lens[i] = len(j)
		}
		fold := func(results []any) []*Table {
			var out []*Table
			off := 0
			for i, f := range folds {
				out = append(out, f(results[off:off+lens[i]])...)
				off += lens[i]
			}
			return out
		}
		return jobs, fold
	}
}

// tablePlan wraps a whole-table builder as a single-job plan, for the
// cheap analytic figures that do not benefit from splitting.
func tablePlan(name string, build func(sz Sizing) *Table) PlanFunc {
	return func(sz Sizing) ([]runner.Job, FoldFunc) {
		jobs := []runner.Job{{
			Name: name,
			Run:  func(context.Context) any { return build(sz) },
		}}
		fold := func(results []any) []*Table {
			tb, _ := results[0].(*Table)
			if tb == nil {
				// The single job died under a hardened executor: no table.
				return nil
			}
			return []*Table{tb}
		}
		return jobs, fold
	}
}
