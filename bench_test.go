package lf_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// Benchmark{Fig,Table}* calls the corresponding experiment in Quick
// mode per iteration, so -benchtime and -count scale the statistical
// weight. Micro-benchmarks for the hot pipeline stages follow.

import (
	"fmt"
	"testing"

	"lf"
	"lf/internal/cluster"
	"lf/internal/collide"
	"lf/internal/decoder"
	"lf/internal/edgedetect"
	"lf/internal/experiment"
	"lf/internal/rng"
	"lf/internal/viterbi"
)

func benchCfg(i int) experiment.Config {
	return experiment.Config{Seed: int64(i + 1), Epochs: 1, Quick: true}
}

func runExperiment(b *testing.B, f func(experiment.Config) (*experiment.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := f(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Table == nil || len(res.Table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// --- One bench per paper table and figure ---

func BenchmarkTable1SingleNodeRecovery(b *testing.B) { runExperiment(b, experiment.Table1) }
func BenchmarkFig1Dynamics(b *testing.B)             { runExperiment(b, experiment.Fig1) }
func BenchmarkFig2Clusters(b *testing.B)             { runExperiment(b, experiment.Fig2) }
func BenchmarkFig4ComparatorJitter(b *testing.B)     { runExperiment(b, experiment.Fig4) }
func BenchmarkFig5Parallelogram(b *testing.B)        { runExperiment(b, experiment.Fig5) }
func BenchmarkFig8Throughput(b *testing.B)           { runExperiment(b, experiment.Fig8) }
func BenchmarkFig9Breakdown(b *testing.B)            { runExperiment(b, experiment.Fig9) }
func BenchmarkFig10Bitrate(b *testing.B)             { runExperiment(b, experiment.Fig10) }
func BenchmarkFig11Coexistence(b *testing.B)         { runExperiment(b, experiment.Fig11) }
func BenchmarkFig12Identification(b *testing.B)      { runExperiment(b, experiment.Fig12) }
func BenchmarkTable2Separation(b *testing.B)         { runExperiment(b, experiment.Table2) }
func BenchmarkFig13Energy(b *testing.B)              { runExperiment(b, experiment.Fig13) }
func BenchmarkFig14SNR(b *testing.B)                 { runExperiment(b, experiment.Fig14) }

func BenchmarkDynamicsRobustness(b *testing.B) {
	runExperiment(b, experiment.DynamicsRobustness)
}

func BenchmarkReliableTransfer(b *testing.B) {
	runExperiment(b, experiment.ReliableTransfer)
}

func BenchmarkScalabilityLowRate(b *testing.B) {
	runExperiment(b, experiment.ScalabilityLowRate)
}

func BenchmarkCapacityModel(b *testing.B) {
	runExperiment(b, experiment.CapacityModel)
}

func BenchmarkTable3Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table3Hardware()
		if len(res.Table.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

func BenchmarkAblationSeparation(b *testing.B) {
	runExperiment(b, experiment.AblationSeparation)
}

func BenchmarkAblationRegistration(b *testing.B) {
	runExperiment(b, experiment.AblationRegistration)
}

// BenchmarkAblationSIC compares decode quality and cost with
// cancellation rounds on and off.
func BenchmarkAblationSIC(b *testing.B) {
	for _, rounds := range []int{0, 3} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 8, PayloadSeconds: 1e-3, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			ep, err := net.RunEpoch()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := decoder.DefaultConfig(25e6, []float64{100e3}, 100)
				cfg.CancellationRounds = rounds
				if _, err := decoder.Decode(ep.Capture, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Pipeline micro-benchmarks ---

// BenchmarkEndToEndDecode measures the full capture→bits pipeline for
// a representative 8-tag epoch.
func BenchmarkEndToEndDecode(b *testing.B) {
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 8, PayloadSeconds: 2e-3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := net.RunEpoch()
	if err != nil {
		b.Fatal(err)
	}
	dec, err := lf.NewDecoder(net.DecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(16 * ep.Capture.Len())) // complex128 samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(ep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingDecode measures the streaming pipeline's steady
// state: the same 8-tag epoch decoded once per op, pushed in
// 8192-sample blocks with mid-capture calibration so every stage runs
// incrementally. Pooled buffers make repeated decodes approach
// zero-alloc in the sample-proportional hot path.
func BenchmarkStreamingDecode(b *testing.B) {
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 8, PayloadSeconds: 2e-3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := net.RunEpoch()
	if err != nil {
		b.Fatal(err)
	}
	cfg := net.DecoderConfig()
	cfg.CalibSamples = 32768
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(16 * ep.Capture.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd, err := dec.NewStream()
		if err != nil {
			b.Fatal(err)
		}
		if err := ep.Blocks(8192, sd.Push); err != nil {
			b.Fatal(err)
		}
		if _, err := sd.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize measures capture synthesis throughput.
func BenchmarkSynthesize(b *testing.B) {
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 16, PayloadSeconds: 1e-3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeDetection measures the detector alone.
func BenchmarkEdgeDetection(b *testing.B) {
	net, _ := lf.NewNetwork(lf.NetworkConfig{NumTags: 8, PayloadSeconds: 2e-3, Seed: 3})
	ep, err := net.RunEpoch()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(16 * ep.Capture.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgedetect.New(ep.Capture, edgedetect.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbi measures the 4-state sequence decoder.
func BenchmarkViterbi(b *testing.B) {
	src := rng.New(1)
	e := complex(7e-4, 2e-4)
	emissions := make([]viterbi.Emission, 1000)
	for i := range emissions {
		obs := complex(0, 0)
		if src.Bit() == 1 {
			obs = e
		}
		emissions[i] = viterbi.Emission{Obs: obs + src.ComplexNorm(1e-9), E: e, Sigma2: 1e-9}
	}
	dec := viterbi.NewDecoder(0.5, viterbi.Down)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(emissions)
	}
}

// BenchmarkKMeans9 measures the collision clustering step.
func BenchmarkKMeans9(b *testing.B) {
	src := rng.New(2)
	e1, e2 := complex(5e-4, 2e-4), complex(-3e-4, 6e-4)
	points := make([]complex128, 300)
	for i := range points {
		a := float64(src.Intn(3) - 1)
		c := float64(src.Intn(3) - 1)
		points[i] = complex(a, 0)*e1 + complex(c, 0)*e2 + src.ComplexNorm(1e-9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMeans(points, 9, 6, 100, src)
	}
}

// BenchmarkBlindSeparation measures the paper's parallelogram path.
func BenchmarkBlindSeparation(b *testing.B) {
	src := rng.New(3)
	e1, e2 := complex(5e-4, 2e-4), complex(-3e-4, 6e-4)
	points := make([]complex128, 300)
	for i := range points {
		a := float64(src.Intn(3) - 1)
		c := float64(src.Intn(3) - 1)
		points[i] = complex(a, 0)*e1 + complex(c, 0)*e2 + src.ComplexNorm(1e-9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collide.SeparateBlind(points, src); err != nil {
			b.Fatal(err)
		}
	}
}
