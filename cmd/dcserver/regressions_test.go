package main

import (
	"fmt"
	"net/http"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
)

// scaleKernel multiplies kernel's exclusive metric by factor at every
// calling context it appears in, propagating the delta to ancestors. A
// profile without the kernel (another vendor may name it differently) is
// left untouched, which simply keeps that series steady.
func scaleKernel(t *cct.Tree, kernel, metric string, factor float64) {
	id, ok := t.Schema.Lookup(metric)
	if !ok {
		return
	}
	t.Visit(func(n *cct.Node) {
		if n.Kind != cct.KindKernel || n.Label() != kernel {
			return
		}
		if v := n.ExclValue(id); v != 0 {
			t.AddMetric(n, id, v*(factor-1))
		}
	})
}

// pickTopKernel returns the kernel label with the largest exclusive sum
// of metric in t, ties broken lexicographically.
func pickTopKernel(t *cct.Tree, metric string) (string, error) {
	id, ok := t.Schema.Lookup(metric)
	if !ok {
		return "", fmt.Errorf("metric %q not in the profile", metric)
	}
	sums := map[string]float64{}
	t.Visit(func(n *cct.Node) {
		if n.Kind == cct.KindKernel {
			sums[n.Label()] += n.ExclValue(id)
		}
	})
	best, bestV := "", -1.0
	for label, v := range sums {
		if v > bestV || (v == bestV && label < best) {
			best, bestV = label, v
		}
	}
	if best == "" {
		return "", fmt.Errorf("no kernels in the profile")
	}
	return best, nil
}

// TestInjectedKernelRegression is the regression detector end to end on
// real profiler output: two clients (nvidia/pytorch and amd/jax) post
// constant-iteration UNet profiles, one window per round, so every
// series' shares are perfectly steady. From round Warmup+1 on — a full
// baseline plus one armed in-band window — the top kernel's cost is
// multiplied by the factor, and K rounds later /regressions must flag
// that kernel and nothing else. A factor of 1 is the control: the same
// schedule must flag nothing at all.
func TestInjectedKernelRegression(t *testing.T) {
	for _, tc := range []struct {
		factor float64
		want   bool // at least one finding
	}{
		{factor: 3, want: true},
		{factor: 1, want: false},
	} {
		t.Run(fmt.Sprintf("factor=%g", tc.factor), func(t *testing.T) {
			clock := &testClock{t: testBase}
			ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)
			trendCfg := store.Config().Trend

			var kernel string
			var steady, inflated [][]byte
			for _, cell := range []struct{ vendor, framework string }{{"nvidia", "pytorch"}, {"amd", "jax"}} {
				p := realProfile(t, "UNet", cell.vendor, cell.framework, 5)
				if kernel == "" {
					k, err := pickTopKernel(p.Tree, trendCfg.Metric)
					if err != nil {
						t.Fatal(err)
					}
					kernel = k
				}
				steady = append(steady, dcpBytes(t, p))
				scaleKernel(p.Tree, kernel, trendCfg.Metric, tc.factor)
				inflated = append(inflated, dcpBytes(t, p))
			}

			// The last round's window closes when the clock moves past it,
			// so the handler's sweep below observes every round.
			inject := trendCfg.Warmup + 1
			for r := 0; r < inject+trendCfg.K; r++ {
				bodies := steady
				if r >= inject {
					bodies = inflated
				}
				for _, body := range bodies {
					resp := postIngest(t, ts, body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						t.Fatalf("round %d: ingest status %d", r, resp.StatusCode)
					}
				}
				clock.Advance(store.Config().Window)
			}

			var rr struct {
				Rows []struct {
					Series string `json:"series"`
					Frame  string `json:"frame"`
				} `json:"rows"`
			}
			if err := getJSON(http.DefaultClient, ts.URL+"/regressions?dir=up&limit=0", &rr); err != nil {
				t.Fatal(err)
			}
			spurious := 0
			for _, row := range rr.Rows {
				if row.Frame != kernel {
					spurious++
					t.Errorf("spurious finding on %s: %s", row.Series, row.Frame)
				}
			}
			if tc.want && len(rr.Rows) == 0 {
				t.Fatalf("a %gx regression of %q raised no finding", tc.factor, kernel)
			}
			if !tc.want && len(rr.Rows) != 0 {
				t.Fatalf("factor %g raised %d findings, want none: %+v", tc.factor, len(rr.Rows), rr.Rows)
			}
			t.Logf("kernel=%s factor=%g up_findings=%d spurious=%d", kernel, tc.factor, len(rr.Rows), spurious)
		})
	}
}
