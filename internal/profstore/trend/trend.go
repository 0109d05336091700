// Package trend maintains per-(series, frame) rolling statistics over the
// profstore's closed fine windows and flags sustained drifts in a frame's
// metric share — the regression-detection layer behind dcserver's
// /regressions surface.
//
// # Model
//
// Each observation is one closed fine window of one series: the caller
// reduces the window's merged tree to a frame → share map (a frame's
// exclusive metric over the window's root inclusive total) and feeds it to
// Observe in window-start order. Shares, not absolute sums, are tracked so
// detection is invariant to how many profiles landed in a window.
//
// Per frame the tracker keeps an exponentially-weighted moving average of
// the share and its EWMA variance. A window whose share deviates from the
// baseline mean by more than the noise band — max(Config.Band,
// Config.Z·σ) — does not update the baseline; instead it extends a drift
// run. K consecutive same-direction out-of-band windows confirm a change
// point and emit a Finding; the baseline then re-arms at the new level so
// the same shift is reported once. A run that ends before K windows (the
// share returns in band, or flips direction) is discharged back into the
// baseline and counted as suppressed.
//
// # Determinism and concurrency
//
// Tracker state is a pure function of the per-series observation sequence:
// no wall-clock reads, no randomness, and each series evolves
// independently, so a store that replays the same windows in the same
// per-series order — whatever its shard count — reproduces findings
// byte-for-byte. The tracker itself is not synchronized; profstore guards
// each shard's tracker with the shard mutex.
package trend

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Config tunes the detector. The zero value means "use defaults".
type Config struct {
	// Metric is the tracked metric name (default gpu_time_ns).
	Metric string
	// Band is the absolute share-deviation noise floor (default 0.05: a
	// frame must move at least five share points to start a drift run).
	Band float64
	// Z widens the band to Z standard deviations of the baseline when the
	// observed noise exceeds Band (default 3).
	Z float64
	// Alpha is the EWMA weight of a new in-band window (default 0.3).
	Alpha float64
	// K is how many consecutive out-of-band windows confirm a change point
	// (default 3).
	K int
	// Warmup is how many windows a frame's baseline absorbs before
	// detection arms (default 3).
	Warmup int
	// MinShare ignores frames whose share and baseline are both below this
	// floor (default 0.01): sub-percent kernels flap without being
	// actionable.
	MinShare float64
	// MaxFindingsPerSeries bounds retained findings per series, oldest
	// dropped first (default 64).
	MaxFindingsPerSeries int
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Metric == "" {
		c.Metric = "gpu_time_ns"
	}
	if c.Band <= 0 {
		c.Band = 0.05
	}
	if c.Z <= 0 {
		c.Z = 3
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Warmup <= 0 {
		c.Warmup = 3
	}
	if c.MinShare <= 0 {
		c.MinShare = 0.01
	}
	if c.MaxFindingsPerSeries <= 0 {
		c.MaxFindingsPerSeries = 64
	}
	return c
}

// Finding is one confirmed change point: a frame whose share of the series'
// metric drifted out of the noise band for K consecutive windows.
type Finding struct {
	Series    string `json:"series"`
	Workload  string `json:"workload"`
	Vendor    string `json:"vendor"`
	Framework string `json:"framework"`
	Frame     string `json:"frame"`
	Metric    string `json:"metric"`
	// Direction is +1 for a share increase (a regression when the metric
	// is a cost) and -1 for a decrease.
	Direction int `json:"direction"`
	// BeforeUnixNano is the last in-band window before the drift began;
	// AfterUnixNano is the window that confirmed it. The pair is a valid
	// Diff argument while both windows are retained.
	BeforeUnixNano int64 `json:"before_unix_nano"`
	AfterUnixNano  int64 `json:"after_unix_nano"`
	// BeforeShare and Share are the frame's exact shares in those two
	// windows — re-derivable from the raw store.
	BeforeShare float64 `json:"before_share"`
	Share       float64 `json:"share"`
	// BaselineShare and BaselineSigma describe the EWMA baseline the drift
	// was measured against; Band is the noise band in force.
	BaselineShare float64 `json:"baseline_share"`
	BaselineSigma float64 `json:"baseline_sigma"`
	Band          float64 `json:"band"`
	// Windows is the run length that confirmed the change (== Config.K).
	Windows int `json:"windows"`
}

// FrameState is one frame's rolling baseline and drift run. Exported (with
// JSON tags) so snapshots can round-trip tracker state.
type FrameState struct {
	Mean      float64 `json:"mean"`
	Var       float64 `json:"var"`
	N         int64   `json:"n"`
	LastShare float64 `json:"last_share"`

	Run            int       `json:"run,omitempty"`
	RunDir         int       `json:"run_dir,omitempty"`
	RunBeforeNS    int64     `json:"run_before_ns,omitempty"`
	RunBeforeShare float64   `json:"run_before_share,omitempty"`
	RunShares      []float64 `json:"run_shares,omitempty"`
}

// SeriesState is one series' complete tracker state: the observation
// watermark, per-frame baselines, retained findings and counters.
type SeriesState struct {
	Workload  string `json:"workload"`
	Vendor    string `json:"vendor"`
	Framework string `json:"framework"`
	// WatermarkUnixNano is the start of the newest observed window;
	// Observe ignores anything at or below it.
	WatermarkUnixNano int64 `json:"watermark_unix_nano"`
	// PrevUnixNano is the window observed immediately before the
	// watermark — the "before" anchor if a drift run starts next window.
	PrevUnixNano int64                  `json:"prev_unix_nano,omitempty"`
	Frames       map[string]*FrameState `json:"frames"`
	Findings     []Finding              `json:"findings,omitempty"`
	Emitted      int64                  `json:"emitted,omitempty"`
	Suppressed   int64                  `json:"suppressed,omitempty"`
}

// Stats summarizes one tracker.
type Stats struct {
	Series     int   `json:"series"`
	Frames     int   `json:"frames"`
	Findings   int64 `json:"findings"`
	Suppressed int64 `json:"suppressed"`
	Late       int64 `json:"late,omitempty"`
}

// Tracker holds trend state for a disjoint set of series (in profstore, the
// series routed to one shard). Not synchronized: the owner serializes all
// calls, including Observe against EncodeState.
type Tracker struct {
	cfg    Config
	series map[string]*SeriesState
	late   int64
}

// New returns an empty tracker with cfg's defaults applied.
func New(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.WithDefaults(), series: make(map[string]*SeriesState)}
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Observe folds one closed window of one series into the tracker. shares
// maps frame label → share of the window's metric total; startNS is the
// window start. Observations at or below the series watermark are ignored,
// so replaying a window sequence over adopted state is idempotent.
func (t *Tracker) Observe(key, workload, vendor, framework string, startNS int64, shares map[string]float64) {
	st := t.series[key]
	if st == nil {
		st = &SeriesState{Frames: make(map[string]*FrameState)}
		t.series[key] = st
	}
	if startNS <= st.WatermarkUnixNano {
		return
	}
	st.Workload, st.Vendor, st.Framework = workload, vendor, framework
	prevNS := st.WatermarkUnixNano
	st.PrevUnixNano = prevNS
	st.WatermarkUnixNano = startNS

	// Walk the union of tracked and observed frames in sorted order: a
	// tracked frame absent from this window observed a share of zero (the
	// frame vanishing is a drift too), and the order makes any map-driven
	// behavior deterministic.
	universe := make([]string, 0, len(st.Frames)+len(shares))
	for f := range st.Frames {
		universe = append(universe, f)
	}
	for f := range shares {
		if _, tracked := st.Frames[f]; !tracked {
			universe = append(universe, f)
		}
	}
	sort.Strings(universe)
	for _, frame := range universe {
		share := shares[frame]
		fs := st.Frames[frame]
		if fs == nil {
			if share < t.cfg.MinShare {
				continue // never start tracking noise-floor frames
			}
			fs = &FrameState{}
			st.Frames[frame] = fs
		}
		t.observeFrame(st, key, frame, fs, prevNS, startNS, share)
	}
}

func (t *Tracker) observeFrame(st *SeriesState, key, frame string, fs *FrameState, prevNS, startNS int64, share float64) {
	defer func() { fs.LastShare = share }()
	if fs.N < int64(t.cfg.Warmup) {
		fs.fold(t.cfg.Alpha, share)
		return
	}
	dev := share - fs.Mean
	sigma := math.Sqrt(math.Max(fs.Var, 0))
	band := math.Max(t.cfg.Band, t.cfg.Z*sigma)
	inBand := math.Abs(dev) <= band ||
		(share < t.cfg.MinShare && fs.Mean < t.cfg.MinShare)
	if inBand {
		if fs.Run > 0 {
			fs.dischargeRun(t.cfg.Alpha)
			st.Suppressed++
		}
		fs.fold(t.cfg.Alpha, share)
		return
	}
	dir := 1
	if dev < 0 {
		dir = -1
	}
	if fs.Run > 0 && fs.RunDir != dir {
		fs.dischargeRun(t.cfg.Alpha)
		st.Suppressed++
	}
	if fs.Run == 0 {
		fs.RunDir = dir
		fs.RunBeforeNS = prevNS
		fs.RunBeforeShare = fs.LastShare
	}
	fs.Run++
	fs.RunShares = append(fs.RunShares, share)
	if fs.Run < t.cfg.K {
		return
	}
	f := Finding{
		Series:         key,
		Workload:       st.Workload,
		Vendor:         st.Vendor,
		Framework:      st.Framework,
		Frame:          frame,
		Metric:         t.cfg.Metric,
		Direction:      dir,
		BeforeUnixNano: fs.RunBeforeNS,
		AfterUnixNano:  startNS,
		BeforeShare:    fs.RunBeforeShare,
		Share:          share,
		BaselineShare:  fs.Mean,
		BaselineSigma:  sigma,
		Band:           band,
		Windows:        fs.Run,
	}
	st.Findings = append(st.Findings, f)
	if len(st.Findings) > t.cfg.MaxFindingsPerSeries {
		st.Findings = st.Findings[len(st.Findings)-t.cfg.MaxFindingsPerSeries:]
	}
	st.Emitted++
	// Re-arm at the new level: the run's windows become the new baseline,
	// so a sustained shift is reported exactly once.
	var sum float64
	for _, s := range fs.RunShares {
		sum += s
	}
	fs.Mean = sum / float64(len(fs.RunShares))
	fs.Var = 0
	fs.N = int64(len(fs.RunShares))
	fs.resetRun()
}

// fold updates the EWMA baseline with one in-band share.
func (fs *FrameState) fold(alpha, share float64) {
	if fs.N == 0 {
		fs.Mean, fs.Var, fs.N = share, 0, 1
		return
	}
	d := share - fs.Mean
	incr := alpha * d
	fs.Mean += incr
	fs.Var = (1 - alpha) * (fs.Var + d*incr)
	fs.N++
}

// dischargeRun folds an unconfirmed drift run back into the baseline in
// observation order and clears it.
func (fs *FrameState) dischargeRun(alpha float64) {
	for _, s := range fs.RunShares {
		fs.fold(alpha, s)
	}
	fs.resetRun()
}

func (fs *FrameState) resetRun() {
	fs.Run, fs.RunDir, fs.RunBeforeNS, fs.RunBeforeShare = 0, 0, 0, 0
	fs.RunShares = nil
}

// NoteLate counts an ingest that landed in an already-observed window
// (clock regression or far-late data); its contribution is not re-folded.
func (t *Tracker) NoteLate() { t.late++ }

// Watermark returns the series' newest observed window start (0 when the
// series is untracked).
func (t *Tracker) Watermark(key string) int64 {
	if st := t.series[key]; st != nil {
		return st.WatermarkUnixNano
	}
	return 0
}

// AppendFindings appends every retained finding (all series, per-series
// detection order) to dst and returns it. The findings are copies.
func (t *Tracker) AppendFindings(dst []Finding) []Finding {
	for _, key := range sortedSeriesKeys(t.series) {
		dst = append(dst, t.series[key].Findings...)
	}
	return dst
}

// Stats sums the tracker's occupancy and counters.
func (t *Tracker) Stats() Stats {
	s := Stats{Late: t.late}
	for _, st := range t.series {
		s.Series++
		s.Frames += len(st.Frames)
		s.Findings += st.Emitted
		s.Suppressed += st.Suppressed
	}
	return s
}

// EncodeState serializes the tracker's full state (JSON; map keys sort, so
// equal state encodes to equal bytes). Late is diagnostic and not carried.
func (t *Tracker) EncodeState() ([]byte, error) {
	if len(t.series) == 0 {
		return nil, nil
	}
	return json.Marshal(t.series)
}

// EncodeStates serializes a filtered per-series state map in EncodeState's
// format — cluster handoff exports carry only the moved series' states.
func EncodeStates(states map[string]*SeriesState) ([]byte, error) {
	if len(states) == 0 {
		return nil, nil
	}
	return json.Marshal(states)
}

// Remove forgets one series entirely — state, watermark and retained
// findings. A node dropping a handed-off series calls this so the new owner
// (which adopted the state) is the single source of its findings.
func (t *Tracker) Remove(key string) {
	delete(t.series, key)
}

// DecodeState parses an EncodeState blob into per-series states, so a
// recovering store can route each series to its current shard.
func DecodeState(data []byte) (map[string]*SeriesState, error) {
	out := make(map[string]*SeriesState)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("trend: decode state: %w", err)
	}
	for key, st := range out {
		if st == nil {
			return nil, fmt.Errorf("trend: decode state: nil series %q", key)
		}
		if st.Frames == nil {
			st.Frames = make(map[string]*FrameState)
		}
		for frame, fs := range st.Frames {
			if fs == nil {
				return nil, fmt.Errorf("trend: decode state: nil frame %q in series %q", frame, key)
			}
		}
	}
	return out, nil
}

// Adopt installs one recovered series state. When the series already exists
// the state with the higher watermark wins (multi-source overlaps only
// happen with handcrafted directories).
func (t *Tracker) Adopt(key string, st *SeriesState) {
	if st == nil {
		return
	}
	if cur := t.series[key]; cur != nil && cur.WatermarkUnixNano >= st.WatermarkUnixNano {
		return
	}
	t.series[key] = st
}

func sortedSeriesKeys(m map[string]*SeriesState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
