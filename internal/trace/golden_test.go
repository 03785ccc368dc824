package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden trace fixtures")

// goldenTrace is a small fixed trace covering the format's edge cases:
// negative address deltas, addresses beyond 32 bits, large gaps, and an empty
// thread between non-empty ones.
func goldenTrace() *Trace {
	return &Trace{
		Name: "golden",
		Init: []Record{
			{Kind: Write, Addr: 0x1000, Gap: 3},
			{Kind: Write, Addr: 0x2000, Gap: 1},
		},
		Parallel: [][]Record{
			{
				{Kind: Read, Addr: 0x7_0000_0040, Gap: 5},
				{Kind: Write, Addr: 0x40, Gap: 2}, // large negative delta
				{Kind: Read, Addr: 0x7fff_ffff_f000, Gap: 1_000_000},
			},
			nil, // an empty thread must survive both formats
			{
				{Kind: Read, Addr: 0x2000, Gap: 10},
				{Kind: Write, Addr: 0x1fc0, Gap: 0},
			},
		},
	}
}

// TestGoldenFixtures pins the on-disk formats. Every fixture must decode to
// goldenTrace(); the v2 fixture, the only format still written, must also
// match the encoder's bytes exactly. A codec change that alters the encoding
// breaks this test, which is the point: the fixtures make format changes
// deliberate (bump the version and regenerate with -update rather than
// silently breaking old files). The v1 fixture has no encoder left and is
// kept to pin the legacy decoder.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		file   string
		encode func(*Trace, *bytes.Buffer) error // nil: decode-only format
	}{
		{"golden-v1.c3dt", nil},
		{"golden-v2.c3dt", func(tr *Trace, buf *bytes.Buffer) error { return EncodeSource(buf, tr.Source()) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			var buf bytes.Buffer
			if tc.encode != nil {
				if err := tc.encode(goldenTrace(), &buf); err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the fixture)", err)
			}
			if tc.encode != nil && !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("encoding of the golden trace changed (%d bytes, fixture %d bytes); "+
					"if intentional, bump the format version and regenerate with -update",
					buf.Len(), len(want))
			}
			got, err := Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("decoding fixture: %v", err)
			}
			if !reflect.DeepEqual(got, goldenTrace()) {
				t.Errorf("fixture decodes to\n%+v\nwant\n%+v", got, goldenTrace())
			}
		})
	}
}

// The v2 fixture must also open as a streaming source and yield the same
// records chunk by chunk.
func TestGoldenV2OpensAsSource(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden-v2.c3dt"))
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	fs, err := OpenSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenTrace()) {
		t.Error("golden v2 fixture mismatch through the streaming source")
	}
	if fs.ThreadLen(1) != 0 {
		t.Errorf("empty thread reported %d records", fs.ThreadLen(1))
	}
}
