// The legacy reader: profdb format version 2, the gob encoding every binary
// before v4 wrote. Nothing writes it any more; it stays readable so .dcp
// files, WAL segments and snapshots from an older binary load in place,
// upgraded to v5 bytes at the door.
package profdb

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"deepcontext/internal/cct"
	"deepcontext/internal/dlmonitor"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
)

// Legacy magics. Gob matches struct fields by name, so any of these files
// decodes far enough into bundleFormat for the magic to be read.
const (
	formatMagicV2 = "DEEPCONTEXT-PROFDB-2" // the gob bundle, still read
	formatMagicV1 = "DEEPCONTEXT-PROFDB-1" // the gob single profile, refused by name
)

type flatNode struct {
	ID     int
	Parent int
	Frame  cct.Frame
	Excl   []cct.Metric
	Incl   []cct.Metric
}

// fileFormat is one profile record of a v2 bundle.
type fileFormat struct {
	Magic          string
	Name           string
	Meta           profiler.Meta
	Stats          profiler.Stats
	MonitorStats   dlmonitor.Stats
	Metrics        []string
	Nodes          []flatNode
	Fused          map[string][]framework.FusedOrigin
	FootprintBytes int64
}

// bundleFormat is the v2 top-level value: a named multi-profile container.
type bundleFormat struct {
	Magic    string
	Profiles []fileFormat
}

func unflatten(ff *fileFormat) (*profiler.Profile, error) {
	tree := cct.New()
	for _, name := range ff.Metrics {
		tree.Schema.ID(name)
	}
	// The rules v5 records are held to: a slot per metric name at most, no
	// name twice, no two siblings that unify.
	if tree.Schema.Len() != len(ff.Metrics) {
		return nil, fmt.Errorf("profdb: a metric name appears twice: %w", ErrCorrupt)
	}
	nodes := make([]*cct.Node, len(ff.Nodes))
	for i, fn := range ff.Nodes {
		if len(fn.Excl) > len(ff.Metrics) || len(fn.Incl) > len(ff.Metrics) {
			return nil, fmt.Errorf("profdb: node %d carries more metric slots than the %d metric names: %w", i, len(ff.Metrics), ErrCorrupt)
		}
		if fn.Parent < 0 {
			nodes[i] = tree.Root
		} else {
			if fn.Parent >= i || nodes[fn.Parent] == nil {
				return nil, fmt.Errorf("profdb: node %d has invalid parent %d: %w", i, fn.Parent, ErrCorrupt)
			}
			before := tree.NodeCount()
			nodes[i] = tree.InsertUnder(nodes[fn.Parent], []cct.Frame{fn.Frame})
			if tree.NodeCount() == before {
				return nil, fmt.Errorf("profdb: node %d unifies with an earlier sibling: %w", i, ErrCorrupt)
			}
		}
		nodes[i].Excl = fn.Excl
	}
	return &profiler.Profile{
		Tree:           tree,
		Meta:           ff.Meta,
		Stats:          ff.Stats,
		MonitorStats:   ff.MonitorStats,
		Fused:          ff.Fused,
		FootprintBytes: ff.FootprintBytes,
	}, nil
}

// decodeLegacy decodes a gob v2 database; anything else — including a v1
// single-profile file — fails with ErrCorrupt.
func decodeLegacy(data []byte) ([]Entry, error) {
	var bf bundleFormat
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&bf); err != nil {
		return nil, fmt.Errorf("profdb: decode: %v: %w", err, ErrCorrupt)
	}
	switch bf.Magic {
	case formatMagicV2:
		if len(bf.Profiles) == 0 {
			return nil, fmt.Errorf("profdb: bundle has no profiles: %w", ErrCorrupt)
		}
		out := make([]Entry, 0, len(bf.Profiles))
		for i := range bf.Profiles {
			p, err := unflatten(&bf.Profiles[i])
			if err != nil {
				return nil, err
			}
			out = append(out, Entry{Name: bf.Profiles[i].Name, Profile: p})
		}
		return out, nil
	case formatMagicV1:
		return nil, fmt.Errorf("profdb: format version 1 is no longer supported (re-save the file with a release that reads it): %w", ErrCorrupt)
	default:
		return nil, fmt.Errorf("profdb: bad magic %q: %w", bf.Magic, ErrCorrupt)
	}
}
