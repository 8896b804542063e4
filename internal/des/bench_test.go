package des_test

import (
	"testing"

	"repro/internal/perfbench"
)

// The benchmark bodies live in internal/perfbench so that these
// wrappers and `ebrc -bench` (BENCH_<n>.json) measure identical
// workloads. This file is an external test package because perfbench
// imports des.

func BenchmarkSchedulerFire(b *testing.B)       { perfbench.SchedulerFire(b) }
func BenchmarkSchedulerTimerChurn(b *testing.B) { perfbench.SchedulerTimerChurn(b) }
func BenchmarkSchedulerDeepQueue(b *testing.B)  { perfbench.SchedulerDeepQueue(b) }

func BenchmarkSchedulerDeepQueue8K(b *testing.B) { perfbench.SchedulerDeepQueue8K(b) }
func BenchmarkSchedulerFarAnchor(b *testing.B)   { perfbench.SchedulerFarAnchor(b) }
