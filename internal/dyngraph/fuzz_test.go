package dyngraph

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadStream feeds arbitrary bytes to ReadStream. It must never panic,
// and a stream it accepts must round-trip through WriteStream: reading the
// written stream back yields the same deltas, one line per delta. Empty
// and absent operation lists are the same delta (WriteStream omits both),
// so the comparison treats them alike. The committed corpus under
// testdata/fuzz/FuzzReadStream covers a generated stream, blank lines,
// CRLF endings, unknown and repeated keys, a null line, an int32 overflow,
// invalid UTF-8 in a timestamp and a torn line.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		deltas, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStream(&buf, deltas); err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != len(deltas) {
			t.Fatalf("wrote %d lines for %d deltas", lines, len(deltas))
		}
		back, err := ReadStream(&buf)
		if err != nil {
			t.Fatalf("written stream does not read back: %v\n%s", err, buf.String())
		}
		if got, want := normalize(back), normalize(deltas); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
		}
	})
}

// normalize returns deltas with every empty operation list set to nil.
func normalize(deltas []StreamDelta) []StreamDelta {
	out := make([]StreamDelta, len(deltas))
	for i, d := range deltas {
		if len(d.AddEdges) == 0 {
			d.AddEdges = nil
		}
		if len(d.RemoveEdges) == 0 {
			d.RemoveEdges = nil
		}
		if len(d.RemoveNodes) == 0 {
			d.RemoveNodes = nil
		}
		out[i] = d
	}
	return out
}
