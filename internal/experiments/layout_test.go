package experiments

import (
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/runner"
)

// layoutChurnConfig is a small copy of the benchmark's fault-plus-churn
// chain: a mirrored reverse chain, a fault plan whose flap holds its
// link down across the last snapshot, and one churn class of each
// protocol — TFRC among them, which no registry scenario has.
func layoutChurnConfig() TopoSimConfig {
	cfg := TopoSimConfig{
		Hops: 3, Capacity: 1.25e6, Buffer: 32,
		HopDelay: 0.01, AccessDelay: 0.005, RevDelay: 0.025,
		NTFRC: 2, NTCP: 2, CrossPerHop: 1, CrossRevDelay: 0.02,
		L: 8, Comprehensive: true,
		Warmup: 1, Duration: 8, Seed: 61,
		RevJitter: 0.2, MirrorRev: true,
		Label: "layout-churn",
	}
	end := cfg.Warmup + cfg.Duration
	cfg.Faults = (&fault.Plan{Seed: 62}).
		Flap(1, 6, 8.5, fault.Flush).
		Burst(0, 400, 25, 0.6)
	cfg.Churn = []arrivals.Spec{
		{
			Name: "tfrc", Proto: arrivals.TFRC,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
			Stop: end, MaxArrivals: 200, Seed: 63,
		},
		{
			Name: "mice", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.05},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
			Stop: end, MaxArrivals: 400, Seed: 64,
		},
		{
			Name: "rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 6},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
			Stop: end, MaxArrivals: 200, Seed: 65,
		},
		{
			Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 4},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Stop: end, MaxArrivals: 200, Seed: 66,
		},
	}
	return cfg
}

// snapshotSums returns each job's last snapshot in dir as an FNV-1a 64
// checksum of its payload, keyed by file name.
func snapshotSums(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshots in %s (%v)", dir, err)
	}
	sums := map[string]uint64{}
	for _, f := range files {
		_, payload, err := checkpoint.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(payload)
		sums[filepath.Base(f)] = h.Sum64()
	}
	return sums
}

// foldSums folds per-job checksums into one, in file-name order.
func foldSums(sums map[string]uint64) uint64 {
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		h.Write([]byte(name))
		var b [8]byte
		for i := range b {
			b[i] = byte(sums[name] >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// The snapshot payload is pinned: small jobs that between them hold
// every stateful component — RED and the probe (fig7), cross traffic
// (fig11), routed reverse with Unbounded queues and pending cross-shard
// deliveries (revcross at 2 shards), a fault plan with its recovery
// watch (linkflap), pooled TCP and CBR churn (surge), the metrics and
// epoch capture with its Unbounded queue samples (surge), and a TFRC
// churn class — write last snapshots whose payload checksums match the
// values recorded when the layout last changed (CodecVersion 6). A
// refactor of the save and restore code must leave every byte where it
// was.
func TestSnapshotLayoutPinned(t *testing.T) {
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1}, PairsCap: 1}
	cases := []struct {
		name     string
		scenario string
		shards   int
		obs      ObserveOptions
		want     uint64
	}{
		{"red-probe", "fig7", 0, ObserveOptions{}, 0x0edd8d70d360805c},
		{"dumbbell-cross", "fig11", 0, ObserveOptions{}, 0x368c296d36fffc4b},
		{"routed-reverse-shards2", "revcross", 2, ObserveOptions{}, 0x15f581728edbf917},
		{"faults-watch", "linkflap", 0, ObserveOptions{}, 0x7585e52b1de6fc7c},
		{"churn", "surge", 0, ObserveOptions{}, 0x64f2119fadf7bd50},
		{"metrics-epochs", "surge", 0, ObserveOptions{Metrics: true, Epochs: 4}, 0x43fd4cb4f89beedf},
		{"tfrc-churn", "", 0, ObserveOptions{}, 0x2442c77124eb7a43},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			withCheckpoint(t, CheckpointOptions{Every: 2, Dir: dir}, tc.obs, func() {
				if tc.scenario == "" {
					RunTopoSim(layoutChurnConfig())
					return
				}
				szk := sz
				szk.Shards = tc.shards
				renderAll(t, tc.scenario, szk, runner.Serial{})
			})
			sums := snapshotSums(t, dir)
			got := foldSums(sums)
			if runtime.GOARCH != "amd64" {
				// Go may fuse multiply-adds off amd64, which moves the
				// trajectory and so the bytes; the constants are amd64's.
				t.Logf("%s: snapshot checksum %#016x over %d jobs (%s; pinned on amd64 only)",
					tc.name, got, len(sums), runtime.GOARCH)
				return
			}
			if got != tc.want {
				for name, s := range sums {
					t.Logf("%s: %#016x", name, s)
				}
				t.Fatalf("%s: snapshot payload checksum %#016x over %d jobs, pinned %#016x. "+
					"If the snapshot layout changed, bump checkpoint.CodecVersion; "+
					"if only the trajectory changed, update the pinned constant.",
					tc.name, got, len(sums), tc.want)
			}
		})
	}
}
