package profdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepcontext/internal/cct"
)

// fuzzSeeds builds the seed corpus from golden serializations: a single
// profile, a multi-profile bundle, the v4 and legacy gob v2 fixtures, plus the malformed
// shapes a hostile /ingest body would take (truncation, wrong magic).
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var single bytes.Buffer
	if err := Save(&single, sampleProfile()); err != nil {
		tb.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := SaveBundle(&bundle, []Entry{
		{Name: "a", Profile: sampleProfile()},
		{Name: "b", Profile: sampleProfile()},
	}); err != nil {
		tb.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-v2.dcp"))
	if err != nil {
		tb.Fatal(err)
	}
	var wrongMagic bytes.Buffer
	if err := gob.NewEncoder(&wrongMagic).Encode(&bundleFormat{Magic: "DEEPCONTEXT-PROFDB-99"}); err != nil {
		tb.Fatal(err)
	}
	truncated := single.Bytes()[:single.Len()/2]
	return [][]byte{
		single.Bytes(),
		bundle.Bytes(),
		v4Fixture(tb),
		legacy,
		wrongMagic.Bytes(),
		truncated,
		[]byte("not a profile at all"),
		{},
	}
}

// FuzzLoad asserts the loader's contract over arbitrary bytes: it never
// panics, and whenever it does accept an input, the result is a well-formed
// profile that survives a save/load round trip.
func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := LoadBundleLimit(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatal("nil error but no entries")
		}
		for _, e := range entries {
			if e.Profile == nil || e.Profile.Tree == nil {
				t.Fatalf("accepted entry with nil profile: %+v", e)
			}
		}
		var buf bytes.Buffer
		if err := SaveBundle(&buf, entries); err != nil {
			t.Fatalf("accepted profile does not re-save: %v", err)
		}
		again, err := LoadBundle(&buf)
		if err != nil {
			t.Fatalf("accepted profile does not reload: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
		}
	})
}

func TestLoadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestLoadWrongMagicIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&bundleFormat{Magic: "DEEPCONTEXT-PROFDB-99"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: err = %v, want ErrCorrupt", err)
	}
	if _, err := Load(strings.NewReader("garbage bytes")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsOversizedInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLimit(bytes.NewReader(buf.Bytes()), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// Exactly at the limit is accepted.
	if _, err := LoadLimit(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatalf("at-limit load failed: %v", err)
	}
}

// "Unlimited" (MaxInt64) must not overflow the read-one-past-the-cap
// arithmetic and reject everything.
func TestLoadLimitMaxInt64(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLimit(bytes.NewReader(buf.Bytes()), math.MaxInt64); err != nil {
		t.Fatalf("MaxInt64 limit rejected a valid profile: %v", err)
	}
}

func TestLoadInvalidParentIsCorrupt(t *testing.T) {
	// A legacy bundle whose node 1 forward-references its parent.
	ff := fileFormat{Nodes: []flatNode{{Parent: -1}, {ID: 1, Parent: 9, Frame: cct.OperatorFrame("aten::conv2d")}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&bundleFormat{Magic: formatMagicV2, Profiles: []fileFormat{ff}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid parent: err = %v, want ErrCorrupt", err)
	}
}

// The typed-error split is what lets a server map failures to HTTP codes;
// the two classes must stay disjoint.
func TestTypedErrorsAreDisjoint(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	_, tooLarge := LoadLimit(bytes.NewReader(buf.Bytes()), 16)
	if errors.Is(tooLarge, ErrCorrupt) {
		t.Fatal("ErrTooLarge should not match ErrCorrupt")
	}
	_, corrupt := Load(strings.NewReader("zzz"))
	if errors.Is(corrupt, ErrTooLarge) {
		t.Fatal("ErrCorrupt should not match ErrTooLarge")
	}
}
