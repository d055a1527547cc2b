package main

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"negativaml/internal/dserve"
	"negativaml/internal/negativa"
)

// goldenPath is where -update-golden writes, relative to the repo root the
// command runs from.
const goldenPath = "bench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// goldenRow pins one row's outputs: the SHA-256 of every debloated library
// and the paper's three headline reductions.
type goldenRow struct {
	FileReductionPct float64           `json:"file_reduction_pct"`
	GPUReductionPct  float64           `json:"gpu_reduction_pct"`
	CPUReductionPct  float64           `json:"cpu_reduction_pct"`
	Libs             map[string]string `json:"libs"`
}

// checker is the output check. want starts as golden.json (or empty under
// -update-golden); a row seen for the first time is recorded and every
// later sighting — on any workload of the run — must match it, so cold,
// warm, disk-restored, peer-served and gateway-served images are compared
// with the golden file and with each other by the same rule.
type checker struct {
	mu     sync.Mutex
	want   map[string]*goldenRow
	update bool
}

func newChecker(update bool) (*checker, error) {
	c := &checker{want: map[string]*goldenRow{}, update: update}
	if update {
		return c, nil
	}
	if err := json.Unmarshal(goldenJSON, &c.want); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return c, nil
}

// output is what one op handed back: the batch result and a way to stream
// each debloated library again, outside the timed section. stamp, when set,
// is what the op wrote at stampOffset of every input library.
type output struct {
	res    *dserve.BatchResult
	stream func(lib string, w io.Writer) (int64, error)
	stamp  []byte
}

// totals is the batch's aggregate with the stamp's bytes taken out: a
// stamped library holds len(stamp) more non-zero bytes than its row's,
// before debloating and after, and the reductions are the row's.
func (o output) totals() negativa.Totals {
	t := o.res.Aggregate()
	n := int64(len(o.stamp) * t.Libs)
	t.FileEffective -= n
	t.FileEffectiveAfter -= n
	return t
}

// check verifies one op's output: every member verified; every library has
// the input's length, each byte is the input's or zero, the image opens
// with debug/elf (an oracle independent of elfx), and its digest and the
// row's reductions equal what is pinned.
func (c *checker) check(r *row, out output) error {
	if out.res == nil {
		return fmt.Errorf("%s: no batch result", r.name)
	}
	if out.res.VerifySkipped || !out.res.AllVerified() {
		return fmt.Errorf("%s: a member workload is not verified", r.name)
	}
	if len(out.res.Libs) != len(r.in.LibNames) {
		return fmt.Errorf("%s: %d libraries back, %d submitted", r.name, len(out.res.Libs), len(r.in.LibNames))
	}
	agg := out.totals()
	got := &goldenRow{
		FileReductionPct: agg.FileReductionPct(),
		GPUReductionPct:  agg.GPUReductionPct(),
		CPUReductionPct:  agg.CPUReductionPct(),
		Libs:             make(map[string]string, len(r.in.LibNames)),
	}
	var buf bytes.Buffer
	for _, name := range r.in.LibNames {
		orig := r.in.Library(name).Data
		buf.Reset()
		if _, err := out.stream(name, &buf); err != nil {
			return fmt.Errorf("%s/%s: stream: %w", r.name, name, err)
		}
		img := buf.Bytes()
		if len(img) != len(orig) {
			return fmt.Errorf("%s/%s: %d bytes streamed, input has %d", r.name, name, len(img), len(orig))
		}
		if n := len(out.stamp); n > 0 {
			// The stamp is the input's bytes there, none of them zero: it must
			// have come through whole. The pinned digests are of the
			// unstamped image.
			if got := img[stampOffset : stampOffset+n]; !bytes.Equal(got, out.stamp) {
				return fmt.Errorf("%s/%s: stamp %x came back as %x", r.name, name, out.stamp, got)
			}
			copy(img[stampOffset:], orig[stampOffset:stampOffset+n])
		}
		for i, b := range img {
			if b != 0 && b != orig[i] {
				return fmt.Errorf("%s/%s: byte %d is %#x, neither the input's %#x nor zero", r.name, name, i, b, orig[i])
			}
		}
		f, err := elf.NewFile(bytes.NewReader(img))
		if err != nil {
			return fmt.Errorf("%s/%s: debug/elf rejects the debloated image: %w", r.name, name, err)
		}
		f.Close()
		d := sha256.Sum256(img)
		got.Libs[name] = hex.EncodeToString(d[:])
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.want[r.name]
	if want == nil {
		if !c.update {
			return fmt.Errorf("%s: row missing from %s (run with -update-golden)", r.name, goldenPath)
		}
		c.want[r.name] = got
		return nil
	}
	if got.FileReductionPct != want.FileReductionPct || got.GPUReductionPct != want.GPUReductionPct || got.CPUReductionPct != want.CPUReductionPct {
		return fmt.Errorf("%s: reductions file/gpu/cpu %v/%v/%v, pinned %v/%v/%v", r.name,
			got.FileReductionPct, got.GPUReductionPct, got.CPUReductionPct,
			want.FileReductionPct, want.GPUReductionPct, want.CPUReductionPct)
	}
	if len(got.Libs) != len(want.Libs) {
		return fmt.Errorf("%s: %d libraries, pinned %d", r.name, len(got.Libs), len(want.Libs))
	}
	for name, d := range got.Libs {
		if want.Libs[name] != d {
			return fmt.Errorf("%s/%s: image digest %.16s…, pinned %.16s…", r.name, name, d, want.Libs[name])
		}
	}
	return nil
}

// writeGolden merges the rows this run saw into the golden file.
func (c *checker) writeGolden() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := map[string]*goldenRow{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		all = map[string]*goldenRow{}
	}
	for name, g := range c.want {
		all[name] = g
	}
	blob, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(blob, '\n'), 0o644)
}

// countingSink is where timed ops stream libraries: it only counts.
type countingSink struct{ n int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}
