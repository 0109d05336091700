package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"deepcontext/internal/profstore"
)

// fill sets every exported field reachable from v to a distinct non-zero
// value: a field the codec forgets decodes as zero, and two fields it mixes
// up decode swapped, so either fails a round trip. Kinds it has no rule
// for fail the test, so a new field of a new kind cannot slip past.
func fill(t testing.TB, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		k := int64(*n)
		if k%2 == 1 {
			k = -k << 40 // negative and wide: zigzag and multi-byte varints
		}
		v.SetInt(k)
	case reflect.Uint8:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("fill: %s has unexported field %s", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// TestPeerWireRoundTripEveryField fills every exported field of a
// PartialsResponse — the PartialSet, both DiffPartials, every AggData,
// trend.Finding and TrendStats inside it — and requires the decoded message
// to equal it and to re-encode to the same bytes.
func TestPeerWireRoundTripEveryField(t *testing.T) {
	var in PartialsResponse
	n := 0
	fill(t, reflect.ValueOf(&in).Elem(), &n)
	msg := EncodePartials(&in)
	out, err := DecodePartials(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, &in) {
		a, _ := json.Marshal(&in)
		b, _ := json.Marshal(out)
		t.Fatalf("round trip lost a field:\n in %s\nout %s", a, b)
	}
	if again := EncodePartials(out); !bytes.Equal(again, msg) {
		t.Fatal("decoded message re-encodes to different bytes")
	}
}

// Aggregates and findings carry exact bits: signed zero, NaN payloads,
// infinities and subnormals survive, which JSON could not carry at all.
func TestPeerWireFloatBits(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1), 5e-324, 0.1, 1 << 53, -3}
	in := &PartialsResponse{Set: profstore.PartialSet{Series: []profstore.SeriesPartial{{
		Key: "k", Agg: &profstore.AggData{Labels: []string{"a"}, Sums: [][]float64{vals}},
	}}}}
	out, err := DecodePartials(EncodePartials(in))
	if err != nil {
		t.Fatal(err)
	}
	got := out.Set.Series[0].Agg.Sums[0]
	for i, v := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Errorf("float %d: bits %#x -> %#x", i, math.Float64bits(v), math.Float64bits(got[i]))
		}
	}
}

// Decoded trees alias the message instead of copying it.
func TestPeerWireTreesAliasMessage(t *testing.T) {
	tree := []byte("profdb bytes")
	msg := EncodePartials(&PartialsResponse{Set: profstore.PartialSet{Series: []profstore.SeriesPartial{{Key: "k", Tree: tree}}}})
	out, err := DecodePartials(msg)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Set.Series[0].Tree
	if !bytes.Equal(got, tree) {
		t.Fatalf("tree = %q", got)
	}
	if i := bytes.Index(msg, tree); i < 0 || &msg[i] != &got[0] {
		t.Fatal("decoded tree does not alias the message buffer")
	}
	if cap(got) != len(got) {
		t.Fatal("decoded tree's capacity runs into the rest of the message")
	}
}

func TestPeerWireRejectsOtherVersions(t *testing.T) {
	old, err := json.MarshalIndent(&PartialsResponse{}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	next := binary.AppendUvarint([]byte(wireMagic), WireVersion+1)
	v2 := binary.AppendUvarint([]byte(wireMagic), 2) // profdb v4 trees
	for name, msg := range map[string][]byte{"json": old, "version 2": v2, "next version": next, "empty": nil} {
		if _, err := DecodePartials(msg); !errors.Is(err, ErrWireVersion) {
			t.Errorf("%s: err = %v, want ErrWireVersion", name, err)
		}
	}
}

// realAnswers are the messages a node actually sends: range trees and
// aggregates, both diff instants, findings with stats, and a handoff
// export carrying trend state.
func realAnswers(tb testing.TB) [][]byte {
	tb.Helper()
	now := time.Date(2026, 1, 1, 0, 0, 30, 0, time.UTC)
	store := profstore.New(profstore.Config{Window: time.Minute, Now: func() time.Time { return now }})
	defer store.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			if _, err := store.Ingest(testProfile(fmt.Sprintf("wl-%d", i), float64(1+i+round))); err != nil {
				tb.Fatal(err)
			}
		}
		now = now.Add(time.Minute)
	}
	ctx := context.Background()
	var out [][]byte
	for _, req := range []PartialsRequest{
		{Kind: "range", Mode: "trees"},
		{Kind: "range", Mode: "aggs", Sweep: true},
		{Kind: "diff", BeforeNS: now.Add(-3 * time.Minute).UnixNano(), AfterNS: now.Add(-time.Minute).UnixNano()},
		{Kind: "regressions"},
	} {
		resp, err := ServePartials(ctx, store, &req)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, EncodePartials(resp))
	}
	next := &Table{Generation: 2, Nodes: []Node{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}}}
	set, err := ExportMoved(ctx, store, "c", next)
	if err != nil {
		tb.Fatal(err)
	}
	if len(set.Series) == 0 || len(set.Trend) == 0 {
		tb.Fatalf("handoff export carries %d series and %d trend bytes; want both", len(set.Series), len(set.Trend))
	}
	return append(out, EncodePartials(&PartialsResponse{Set: set}))
}

func TestPeerWireRealAnswersRoundTrip(t *testing.T) {
	for i, msg := range realAnswers(t) {
		out, err := DecodePartials(msg)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if again := EncodePartials(out); !bytes.Equal(again, msg) {
			t.Fatalf("answer %d re-encodes to different bytes", i)
		}
	}
}

func heapDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzPartialsDecode holds the peer-wire decoder to its contract over
// arbitrary bytes behind the magic: it never panics, it allocates at most
// a small multiple of the input (hostile counts and lengths are checked
// against the bytes remaining first), failures are typed, and whatever it
// accepts re-encodes to exactly the bytes it came from.
func FuzzPartialsDecode(f *testing.F) {
	header := binary.AppendUvarint([]byte(wireMagic), WireVersion)
	header = header[:len(header):len(header)] // each seed appends to its own copy
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, msg := range realAnswers(f) {
		f.Add(msg)
		f.Add(msg[:len(msg)/2])
	}
	var filled PartialsResponse
	n := 0
	fill(f, reflect.ValueOf(&filled).Elem(), &n)
	f.Add(EncodePartials(&filled))
	f.Add(append(header, huge...))                           // hostile partial count
	f.Add(append(append(header, 0), huge...))                // hostile trend length
	f.Add(append(append(header, 0, 0, 0, 0), huge...))       // hostile finding count
	f.Add(append(append(header, 0, 0, 0, 0, 0, 0), 0xde))    // trailing byte
	f.Add(append(append(header, 0, 0, 2, 0, 0, 0), 0x80, 0)) // bad marker, overlong varint
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(wireMagic)) {
			data = append(append([]byte(nil), header...), data...)
		}
		var resp *PartialsResponse
		var err error
		// The dearest input is a run of empty aggregate rows: a one-byte
		// count buys a 24-byte slice header. A partial costs 136 bytes for
		// its 10, a finding 168 for its 15.
		if got, limit := heapDelta(func() { resp, err = DecodePartials(data) }), uint64(32*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrWireVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if again := EncodePartials(resp); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
