package cubin

import (
	"reflect"
	"testing"

	"negativaml/internal/gpuarch"
)

// FuzzCubin feeds Parse bytes it did not author, as ingestion does with the
// cubins inside a tree's fatbins. Parse must never panic, and whatever it
// accepts must survive Marshal → Parse with the same arch and kernels:
// names, flags, code and call edges.
func FuzzCubin(f *testing.F) {
	good, err := sample().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	empty, err := New(gpuarch.SM80).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(empty)
	f.Add(good[:len(good)/2])
	f.Add(make([]byte, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		blob, err := c.Marshal()
		if err != nil {
			t.Fatalf("an accepted cubin does not marshal: %v", err)
		}
		back, err := Parse(blob)
		if err != nil {
			t.Fatalf("a marshalled cubin does not parse: %v", err)
		}
		if back.Arch != c.Arch || !reflect.DeepEqual(back.Kernels, c.Kernels) {
			t.Fatalf("round trip changed the cubin:\n got %+v\nwant %+v", back, c)
		}
	})
}
