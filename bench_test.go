package deepcontext

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// runs the corresponding experiment per iteration and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` regenerates
// the full evaluation. Reduced iteration counts keep wall time sane; the
// dcexp tool runs the same experiments at the paper's 100 iterations.

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"deepcontext/internal/profiler"

	"deepcontext/internal/cct"
	"deepcontext/internal/dlmonitor"
	"deepcontext/internal/eval"
	"deepcontext/internal/framework"
	"deepcontext/internal/framework/torchsim"
	"deepcontext/internal/gpu"
	"deepcontext/internal/gpu/cupti"
	"deepcontext/internal/profdb"
	"deepcontext/internal/vtime"
	"deepcontext/internal/workloads"
)

const benchIters = 10

// profilerNativeConfig and profilerNewSession keep the ablation harness
// readable.
func profilerNativeConfig() profiler.Config {
	cfg := profiler.DefaultConfig()
	cfg.Path = dlmonitor.FullContext()
	return cfg
}

func profilerNewSession(mn *dlmonitor.Monitor, env *workloads.Env, tr gpu.Tracer, cfg profiler.Config) *profiler.Session {
	return profiler.NewSession(mn, env.M, tr, cfg)
}

// --- Table 1 & 2 -----------------------------------------------------------

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(eval.FormatTable1(), "DeepContext") {
			b.Fatal("matrix incomplete")
		}
	}
	b.ReportMetric(float64(len(eval.Table1())), "tools")
}

func BenchmarkTable2Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(eval.Table2()) != 2 {
			b.Fatal("platforms wrong")
		}
	}
}

// --- Figure 6: overhead sweeps ----------------------------------------------

func benchSweep(b *testing.B, fw string, vendor gpu.Vendor, mem bool) {
	b.Helper()
	var m eval.SweepMedians
	for i := 0; i < b.N; i++ {
		rows, err := eval.OverheadSweep(fw, vendor, benchIters)
		if err != nil {
			b.Fatal(err)
		}
		m = eval.Medians(rows)
	}
	if mem {
		b.ReportMetric(m.MemFramework, "fwprof-mem-x")
		b.ReportMetric(m.MemDC, "dc-mem-x")
	} else {
		b.ReportMetric(m.TimeFramework, "fwprof-x")
		b.ReportMetric(m.TimeDC, "dc-x")
		b.ReportMetric(m.TimeDCNative, "dc-native-x")
	}
}

func BenchmarkFig6aTimePyTorchNvidia(b *testing.B) { benchSweep(b, "pytorch", gpu.VendorNvidia, false) }
func BenchmarkFig6aTimePyTorchAMD(b *testing.B)    { benchSweep(b, "pytorch", gpu.VendorAMD, false) }
func BenchmarkFig6bTimeJAXNvidia(b *testing.B)     { benchSweep(b, "jax", gpu.VendorNvidia, false) }
func BenchmarkFig6bTimeJAXAMD(b *testing.B)        { benchSweep(b, "jax", gpu.VendorAMD, false) }
func BenchmarkFig6cMemPyTorchNvidia(b *testing.B)  { benchSweep(b, "pytorch", gpu.VendorNvidia, true) }
func BenchmarkFig6dMemJAXNvidia(b *testing.B)      { benchSweep(b, "jax", gpu.VendorNvidia, true) }

// --- Table 3: case studies ---------------------------------------------------

func benchCase(b *testing.B, fn func(int) (eval.CaseResult, error)) {
	b.Helper()
	var c eval.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		c, err = fn(benchIters * 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	if c.Speedup > 0 {
		b.ReportMetric(c.Speedup, "speedup-x")
	}
}

func BenchmarkTable3DLRMIndex(b *testing.B)         { benchCase(b, eval.CaseDLRMIndex) }
func BenchmarkTable3GNNIndex(b *testing.B)          { benchCase(b, eval.CaseGNNIndex) }
func BenchmarkTable3UNetLayout(b *testing.B)        { benchCase(b, eval.CaseUNetLayout) }
func BenchmarkTable3UNetLoader(b *testing.B)        { benchCase(b, eval.CaseUNetLoader) }
func BenchmarkTable3TransformerFusion(b *testing.B) { benchCase(b, eval.CaseTransformerFusion) }
func BenchmarkTable3LlamaStalls(b *testing.B)       { benchCase(b, eval.CaseLlamaStalls) }

func BenchmarkTable3AMDvsNV(b *testing.B) {
	var nv, amd eval.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		nv, amd, err = eval.CaseAMDvsNV(benchIters)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(nv.Finding, "conv") || !strings.Contains(amd.Finding, "norm") {
		b.Fatalf("hotspot flip missing: NV=%q AMD=%q", nv.Finding, amd.Finding)
	}
}

// --- §6.6 JAX vs PyTorch ------------------------------------------------------

func BenchmarkJAXvsPyTorch(b *testing.B) {
	var rows []eval.JAXComparison
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.JAXvsPyTorch(100)
		if err != nil {
			b.Fatal(err)
		}
	}
	var minSp = 1e9
	for _, r := range rows {
		if r.Speedup < minSp {
			minSp = r.Speedup
		}
	}
	b.ReportMetric(minSp, "min-jax-speedup-x")
}

// --- Figures 1/3/4: call-path machinery (microbenchmarks) --------------------

func BenchmarkFig3CallPathIntegration(b *testing.B) {
	m := framework.NewMachine(gpu.A100())
	e := torchsim.New(m)
	tr, err := cupti.New(m.GPU)
	if err != nil {
		b.Fatal(err)
	}
	mn, err := dlmonitor.Init(dlmonitor.Config{Machine: m, Frameworks: []framework.Hooks{e}, Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	th := m.NewThread("bench")
	th.PushPy("train.py", 1, "main")
	op := torchsim.Op{
		Name:           "aten::conv2d",
		CPUCost:        vtime.Microsecond,
		InternalFrames: 8,
		Kernels:        []gpu.KernelSpec{{Name: "k", Grid: gpu.D3(108), Block: gpu.D3(256), FLOPs: 1e6}},
	}
	paths := 0
	mn.RegisterGPUCallback(func(ev *gpu.APIEvent) {
		if ev.Phase == 0 && ev.Site == gpu.SiteLaunchKernel {
			p := mn.CallPath(th, dlmonitor.FullContext())
			if len(p.Frames) == 0 {
				b.Fatal("empty path")
			}
			paths++
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(th, op)
	}
	if paths != b.N {
		b.Fatalf("paths = %d", paths)
	}
}

func BenchmarkFig5CCTInsertAndPropagate(b *testing.B) {
	tree := cct.New()
	id := tree.MetricID(cct.MetricGPUTime)
	path := []cct.Frame{
		cct.PythonFrame("train.py", 1, "main"),
		cct.PythonFrame("model.py", 42, "forward"),
		cct.OperatorFrame("aten::conv2d"),
		cct.NativeFrame("at::native::conv2d", "libtorch.so", 0x1000, "c.cpp", 1),
		{Kind: cct.KindGPUAPI, Name: "cudaLaunchKernel", Lib: "libcudart.so", PC: 0x2000},
		{Kind: cct.KindKernel, Name: "implicit_gemm", Lib: "[gpu]", PC: 0x3000},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf := tree.InsertPath(path)
		tree.AddMetric(leaf, id, float64(i))
	}
}

func BenchmarkFig4JAXCompileWithFusion(b *testing.B) {
	env := workloads.NewEnv(gpu.A100())
	w := workloads.GNN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workloads.RunJAX(env, w, workloads.Knobs{}, 1)
	}
}

func BenchmarkBottomUpView(b *testing.B) {
	p, err := ProfileWorkload("GNN", Config{}, Knobs{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Tree.BottomUp().NodeCount() == 0 {
			b.Fatal("empty bottom-up tree")
		}
	}
}

func BenchmarkProfileSaveLoad(b *testing.B) {
	p, err := ProfileWorkload("ViT", Config{}, Knobs{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- profdb.Save(pw, p)
			pw.Close()
		}()
		if _, err := profdb.Load(pr); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// The codec on its own, on the largest cell profile: every durable ingest
// pays one decode, and every snapshot one encode per retained series.
func BenchmarkProfdbEncode(b *testing.B) {
	p, err := ProfileWorkload("ViT", Config{}, Knobs{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := profdb.Save(&buf, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkProfdbDecode(b *testing.B) {
	p, err := ProfileWorkload("ViT", Config{}, Knobs{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profdb.Save(&buf, p); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profdb.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzerFullReport(b *testing.B) {
	p, err := ProfileWorkload("UNet", Config{CPUSampling: true}, Knobs{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(p)
	}
}

// --- Ingestion hot path (docs/PERFORMANCE.md) --------------------------------
//
// The ingestion suite isolates the CCT construction hot path — the work done
// on every intercepted event — and measures three representative full
// workloads under both frameworks. Results are recorded in BENCH_*.json.

// ingestPaths builds a deterministic mix of call paths shaped like real
// profiler input: a handful of hot paths (cache-friendly unification) plus a
// long tail of distinct contexts (tree growth).
func ingestPaths() [][]cct.Frame {
	var paths [][]cct.Frame
	for op := 0; op < 16; op++ {
		for k := 0; k < 4; k++ {
			paths = append(paths, []cct.Frame{
				cct.PythonFrame("train.py", 10, "main"),
				cct.PythonFrame("model.py", 100+op, "forward"),
				cct.OperatorFrame("aten::op" + strconv.Itoa(op)),
				{Kind: cct.KindGPUAPI, Name: "cudaLaunchKernel", Lib: "libcudart.so", PC: 0x2000},
				{Kind: cct.KindKernel, Name: "kernel" + strconv.Itoa(k), Lib: "[gpu]", PC: uint64(0x3000 + op*64 + k)},
			})
		}
	}
	return paths
}

// BenchmarkIngestInsertHot measures frame unification on a warm tree: every
// path already exists, so an iteration is pure key lookup plus metric
// propagation — the steady state of a long profiling run.
func BenchmarkIngestInsertHot(b *testing.B) {
	tree := cct.New()
	id := tree.MetricID(cct.MetricGPUTime)
	paths := ingestPaths()
	for _, p := range paths {
		tree.InsertPath(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		leaf := tree.InsertPath(p)
		tree.AddMetric(leaf, id, float64(i))
	}
}

// BenchmarkIngestInsertGrow measures tree growth: every iteration builds a
// fresh tree from the full path mix, exercising node allocation.
func BenchmarkIngestInsertGrow(b *testing.B) {
	paths := ingestPaths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := cct.New()
		for _, p := range paths {
			tree.InsertPath(p)
		}
	}
}

// benchIngestWorkload measures full profiled-workload wall time (real time,
// not virtual time) for one workload × framework pair.
func benchIngestWorkload(b *testing.B, wl, fw string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := ProfileWorkload(wl, Config{Framework: fw}, Knobs{})
		if err != nil {
			b.Fatal(err)
		}
		if p.Tree.NodeCount() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// benchIngestShards pins the shard count to isolate the sharded fold path
// (Shards=1 is the serial byte-identical path; 8 exercises mirror-cache
// attribution and the Stop-time fold).
func benchIngestShards(b *testing.B, shards int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := ProfileWorkload("UNet", Config{Shards: shards}, Knobs{})
		if err != nil {
			b.Fatal(err)
		}
		if p.Tree.NodeCount() == 0 {
			b.Fatal("empty tree")
		}
	}
}

func BenchmarkIngestShards1(b *testing.B) { benchIngestShards(b, 1) }
func BenchmarkIngestShards8(b *testing.B) { benchIngestShards(b, 8) }

func BenchmarkIngestWorkloadViTPyTorch(b *testing.B)  { benchIngestWorkload(b, "ViT", "pytorch") }
func BenchmarkIngestWorkloadViTJAX(b *testing.B)      { benchIngestWorkload(b, "ViT", "jax") }
func BenchmarkIngestWorkloadGNNPyTorch(b *testing.B)  { benchIngestWorkload(b, "GNN", "pytorch") }
func BenchmarkIngestWorkloadGNNJAX(b *testing.B)      { benchIngestWorkload(b, "GNN", "jax") }
func BenchmarkIngestWorkloadUNetPyTorch(b *testing.B) { benchIngestWorkload(b, "UNet", "pytorch") }
func BenchmarkIngestWorkloadUNetJAX(b *testing.B)     { benchIngestWorkload(b, "UNet", "jax") }

// --- Ablations (DESIGN.md §5): design choices the paper calls out ------------

// ablationRun measures Llama3 end-to-end under native call paths with the
// call-path cache enabled or disabled — quantifying §4.1's caching
// optimization ("many deep learning operators trigger multiple GPU kernels
// such that they share the same Python and operator call paths").
func ablationRun(b *testing.B, disableCache bool) vtime.Duration {
	b.Helper()
	env := workloads.NewEnv(gpu.A100())
	tr, err := cupti.New(env.M.GPU)
	if err != nil {
		b.Fatal(err)
	}
	mn, err := dlmonitor.Init(dlmonitor.Config{
		Machine:              env.M,
		Frameworks:           []framework.Hooks{env.Torch, env.Jax},
		Tracer:               tr,
		DisableCallPathCache: disableCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := profilerNativeConfig()
	sess := profilerNewSession(mn, env, tr, cfg)
	if err := sess.Start(); err != nil {
		b.Fatal(err)
	}
	workloads.RunPyTorch(env, workloads.Llama3(), workloads.Knobs{}, 5)
	sess.Stop()
	return env.M.EndToEnd()
}

func BenchmarkAblationCallPathCache(b *testing.B) {
	var with, without vtime.Duration
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, false)
		without = ablationRun(b, true)
	}
	if without <= with {
		b.Fatalf("disabling the cache should cost time: %v vs %v", without, with)
	}
	b.ReportMetric(float64(without)/float64(with), "nocache-slowdown-x")
}

// BenchmarkAblationNativeUnwinding quantifies the cost of native call paths
// (the light-vs-native gap of Figure 6).
func BenchmarkAblationNativeUnwinding(b *testing.B) {
	var light, native float64
	for i := 0; i < b.N; i++ {
		for _, prof := range []eval.ProfKind{eval.ProfDC, eval.ProfDCNative} {
			r, err := eval.Run(workloads.Llama3(), "pytorch", gpu.VendorNvidia, prof, eval.Options{Iters: 5})
			if err != nil {
				b.Fatal(err)
			}
			if prof == eval.ProfDC {
				light = float64(r.E2E)
			} else {
				native = float64(r.E2E)
			}
		}
	}
	if native <= light {
		b.Fatal("native mode should cost more than light mode")
	}
	b.ReportMetric(native/light, "native-over-light-x")
}
