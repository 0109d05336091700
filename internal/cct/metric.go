package cct

// MetricID indexes a metric within a tree's schema.
type MetricID int

// Schema interns metric names to dense IDs shared by all nodes of a tree.
type Schema struct {
	names []string
	idx   map[string]MetricID
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{idx: make(map[string]MetricID)} }

// ID interns name, returning its dense ID.
func (s *Schema) ID(name string) MetricID {
	if id, ok := s.idx[name]; ok {
		return id
	}
	id := MetricID(len(s.names))
	s.names = append(s.names, name)
	s.idx[name] = id
	return id
}

// Lookup returns the ID for name without interning.
func (s *Schema) Lookup(name string) (MetricID, bool) {
	id, ok := s.idx[name]
	return id, ok
}

// Name returns the name for id.
func (s *Schema) Name(id MetricID) string { return s.names[id] }

// Len reports the number of metrics.
func (s *Schema) Len() int { return len(s.names) }

// Names returns all metric names in ID order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Metric aggregates samples of one metric at one node online: sum, min, max,
// count, and Welford mean/variance — the paper's per-node aggregation that
// replaces trace storage.
type Metric struct {
	Sum   float64
	Min   float64
	Max   float64
	Count int64
	Mean  float64
	M2    float64
}

// Add folds one sample into the aggregate.
func (m *Metric) Add(v float64) {
	if m.Count == 0 {
		m.Min, m.Max = v, v
	} else {
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	m.Count++
	m.Sum += v
	d := v - m.Mean
	m.Mean += d / float64(m.Count)
	m.M2 += d * (v - m.Mean)
}

// Merge folds another aggregate into this one (parallel Welford combine).
func (m *Metric) Merge(o Metric) {
	if o.Count == 0 {
		return
	}
	if m.Count == 0 {
		*m = o
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	n1, n2 := float64(m.Count), float64(o.Count)
	d := o.Mean - m.Mean
	tot := n1 + n2
	m.Mean += d * n2 / tot
	m.M2 += o.M2 + d*d*n1*n2/tot
	m.Count += o.Count
	m.Sum += o.Sum
}

// Empty reports whether no samples were added.
func (m *Metric) Empty() bool { return m.Count == 0 }

// Well-known metric names used across the profiler, analyzer and GUI.
const (
	MetricGPUTime      = "gpu_time_ns"
	MetricCPUTime      = "cpu_time_ns"
	MetricRealTime     = "real_time_ns"
	MetricKernelCount  = "kernel_launches"
	MetricAPICount     = "gpu_api_calls"
	MetricMemcpyBytes  = "memcpy_bytes"
	MetricAllocBytes   = "alloc_bytes"
	MetricWarps        = "warps_per_launch"
	MetricBlocks       = "blocks_per_launch"
	MetricSharedMem    = "shared_mem_bytes"
	MetricRegisters    = "registers_per_thread"
	MetricStallSamples = "stall_samples"
	MetricInstSamples  = "inst_samples"
)
