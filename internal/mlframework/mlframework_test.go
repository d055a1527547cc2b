package mlframework

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"negativaml/internal/cubin"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
	"negativaml/internal/models"
)

func gen(t *testing.T, fw string, tail int) *Install {
	t.Helper()
	in, err := Generate(Config{Framework: fw, TailLibs: tail})
	if err != nil {
		t.Fatalf("Generate(%s): %v", fw, err)
	}
	return in
}

func TestGenerateAllFrameworks(t *testing.T) {
	for _, fw := range []string{PyTorch, TensorFlow, VLLM, HFTransformers} {
		in := gen(t, fw, 20)
		if len(in.LibNames) != len(in.Libs) {
			t.Errorf("%s: lib name/count mismatch", fw)
		}
		if len(in.InitCalls) == 0 {
			t.Errorf("%s: no init calls", fw)
		}
		if in.TotalFileSize() <= 0 {
			t.Errorf("%s: empty install", fw)
		}
		// Every init call must reference an existing, alive function.
		for _, c := range in.InitCalls[:min(len(in.InitCalls), 50)] {
			lib := in.Library(c.Lib)
			if lib == nil {
				t.Fatalf("%s: init call references missing lib %s", fw, c.Lib)
			}
			fn := lib.FindFunction(c.Func)
			if fn == nil {
				t.Fatalf("%s: init call references missing func %s in %s", fw, c.Func, c.Lib)
			}
			if !lib.FunctionAlive(fn) {
				t.Fatalf("%s: function %s generated dead", fw, c.Func)
			}
		}
	}
}

func TestUnknownFramework(t *testing.T) {
	if _, err := Generate(Config{Framework: "Caffe"}); err == nil {
		t.Error("unknown framework should fail")
	}
}

// Every kernel a supported workload resolves must exist in the hosting
// library's fatbin for the device architecture.
func TestWorkloadKernelsExist(t *testing.T) {
	in := gen(t, PyTorch, 0)
	graphs := []*models.Graph{
		models.MobileNetV2(true, 16), models.MobileNetV2(false, 1),
		models.Transformer(true, 128), models.Transformer(false, 32),
	}
	for _, arch := range []gpuarch.SM{gpuarch.SM75, gpuarch.SM80, gpuarch.SM90} {
		for _, g := range graphs {
			for i := range g.Ops {
				op := &g.Ops[i]
				libName, ok := in.FamilyLib[op.Family]
				if !ok {
					t.Fatalf("family %q not hosted anywhere", op.Family)
				}
				lib := in.Library(libName)
				fb, has, err := lib.Fatbin()
				if err != nil || !has {
					t.Fatalf("%s: fatbin: %v", libName, err)
				}
				kname := op.KernelFor(arch, 0)
				if !fatbinHasKernel(t, fb, arch, kname) {
					t.Errorf("%s misses kernel %q for %s", libName, kname, arch)
				}
			}
		}
	}
}

func TestVLLMHostsPagedAttentionAndComm(t *testing.T) {
	in := gen(t, VLLM, 0)
	if in.FamilyLib["paged_attention"] != "libvllm_flash_attn.so" {
		t.Errorf("paged_attention hosted by %q", in.FamilyLib["paged_attention"])
	}
	if in.FamilyLib["allreduce"] != "libnccl.so.2" {
		t.Errorf("allreduce hosted by %q", in.FamilyLib["allreduce"])
	}
	// Rank-7 comm kernel exists for distributed inference.
	lib := in.Library("libnccl.so.2")
	fb, _, err := lib.Fatbin()
	if err != nil {
		t.Fatal(err)
	}
	g := models.LLM(models.Llama2(true, 8))
	var commK string
	for i := range g.Ops {
		if g.Ops[i].PerRank {
			commK = g.Ops[i].KernelFor(gpuarch.SM80, 7)
			break
		}
	}
	if commK == "" {
		t.Fatal("no comm op in distributed graph")
	}
	if !fatbinHasKernel(t, fb, gpuarch.SM80, commK) {
		t.Errorf("libnccl misses %q", commK)
	}
}

func TestFamiliesHostedUniquely(t *testing.T) {
	for _, fw := range []string{PyTorch, TensorFlow, VLLM, HFTransformers} {
		in := gen(t, fw, 0)
		for fam, lib := range in.FamilyLib {
			if in.Library(lib) == nil {
				t.Errorf("%s: family %s hosted by missing lib %s", fw, fam, lib)
			}
			if len(in.FamilyCalls[fam]) == 0 {
				t.Errorf("%s: family %s has no dispatch functions", fw, fam)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := gen(t, PyTorch, 10)
	b := gen(t, PyTorch, 10)
	for name, la := range a.Libs {
		lb := b.Libs[name]
		if lb == nil {
			t.Fatalf("second generation missing %s", name)
		}
		if !bytes.Equal(la.Data, lb.Data) {
			t.Errorf("%s differs between generations", name)
		}
	}
}

// installDigest hashes everything an install is: each library's name and
// bytes in load order, then the manifest metadata (JSON, so map keys are
// sorted). A generator that reorders libraries, init calls or dispatch
// functions changes it even when every library is byte-identical.
func installDigest(t *testing.T, in *Install) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	for _, name := range in.LibNames {
		data := in.Libs[name].Data
		h.Write([]byte(name))
		binary.BigEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	meta, err := json.Marshal(in.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(meta)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedBytesPinned holds the generator to the bytes and metadata it
// produced when each library was still built in a serial loop: a fan-out
// that reorders anything, or a change to what a blueprint builds, fails
// here. TestDeterminism alone cannot see either — it compares the
// generator with itself.
func TestGeneratedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		fw   string
		tail int
		want string
	}{
		{PyTorch, 20, "78d946730820bbee4dd7f0c521fe61647fdb86521d02673918badcec5e80b41a"},
		{TensorFlow, 0, "5b77fb7a298447471980f7529ec510b7896a8bcf710991dc38ca35c7080e8b64"},
		{VLLM, 0, "c5eabd271150c2d7fb5bb47a1e5b5a5555b33ac807d28c8dacdc077f1b4e3995"},
		{HFTransformers, 8, "88bcba88ee33cc28e1727d90cbe9a5c78f5c7f8c37cdf10f0218b6ed4e7a9f0f"},
	} {
		if got := installDigest(t, gen(t, tc.fw, tc.tail)); got != tc.want {
			t.Errorf("%s/%d: install digest %s, pinned %s", tc.fw, tc.tail, got, tc.want)
		}
	}
}

// libtorch_cuda.so must be byte-identical between the PyTorch and
// Transformers installs (same wheel), but differ under vLLM (different
// bundled torch build — the paper excludes vLLM from Table 4 for this).
func TestTorchCudaSharedAcrossInstalls(t *testing.T) {
	pt := gen(t, PyTorch, 0).Library("libtorch_cuda.so")
	hf := gen(t, HFTransformers, 0).Library("libtorch_cuda.so")
	vl := gen(t, VLLM, 0).Library("libtorch_cuda.so")
	if !bytes.Equal(pt.Data, hf.Data) {
		t.Error("PyTorch and Transformers should share libtorch_cuda.so bytes")
	}
	if bytes.Equal(pt.Data, vl.Data) {
		t.Error("vLLM's libtorch_cuda.so should differ (different version)")
	}
}

func TestMultiArchElements(t *testing.T) {
	in := gen(t, PyTorch, 0)
	lib := in.Library("libtorch_cuda.so")
	fb, _, err := lib.Fatbin()
	if err != nil {
		t.Fatal(err)
	}
	archs := map[gpuarch.SM]int{}
	for _, e := range fb.Elements() {
		archs[e.Arch]++
	}
	if len(archs) != 7 {
		t.Errorf("libtorch_cuda should ship 7 architectures, got %d", len(archs))
	}
	// Fine-grained Hopper cubins: SM90 must have more elements than SM75.
	if archs[gpuarch.SM90] <= archs[gpuarch.SM75] {
		t.Errorf("SM90 elements (%d) should exceed SM75 (%d) — per-variant cubins", archs[gpuarch.SM90], archs[gpuarch.SM75])
	}
}

func TestTensorFlowShipsFewerArchs(t *testing.T) {
	in := gen(t, TensorFlow, 0)
	fb, _, err := in.Library("libtensorflow_cc.so.2").Fatbin()
	if err != nil {
		t.Fatal(err)
	}
	archs := map[gpuarch.SM]bool{}
	for _, e := range fb.Elements() {
		archs[e.Arch] = true
	}
	if len(archs) != 5 {
		t.Errorf("tensorflow_cc should ship 5 architectures, got %d", len(archs))
	}
}

func TestTensorFlowUsedBloat(t *testing.T) {
	pt := gen(t, PyTorch, 0)
	tf := gen(t, TensorFlow, 0)
	// TF calls far more CPU functions at init — the paper's "used bloat".
	if len(tf.InitCalls) < 3*len(pt.InitCalls) {
		t.Errorf("TF init calls (%d) should dwarf PyTorch's (%d)", len(tf.InitCalls), len(pt.InitCalls))
	}
}

func TestTailLibsGrowInstall(t *testing.T) {
	small := gen(t, PyTorch, 5)
	big := gen(t, PyTorch, 100)
	if len(big.LibNames)-len(small.LibNames) != 95 {
		t.Errorf("tail delta = %d, want 95", len(big.LibNames)-len(small.LibNames))
	}
	// Tail libraries have no GPU code.
	tailLib := big.Library(big.LibNames[len(big.LibNames)-1])
	if _, ok := tailLib.FatbinRange(); ok {
		t.Error("tail library should be CPU-only")
	}
}

func TestCloneWithLibs(t *testing.T) {
	in := gen(t, PyTorch, 2)
	orig := in.Library("libtorch_cuda.so")
	mod := append([]byte(nil), orig.Data...)
	// Zero one bloat function to make a "debloated" variant.
	for _, fn := range orig.Funcs {
		if strings.Contains(fn.Name, "_fn_") {
			for i := fn.Range.Start; i < fn.Range.End; i++ {
				mod[i] = 0
			}
			break
		}
	}
	clone, err := in.CloneWithLibs(map[string][]byte{"libtorch_cuda.so": mod})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(clone.Library("libtorch_cuda.so").Data, orig.Data) {
		t.Error("clone should carry replaced bytes")
	}
	if in.Library("libtorch_cuda.so") != orig {
		t.Error("original install must be untouched")
	}
	if clone.Library("libtorch_cpu.so") != in.Library("libtorch_cpu.so") {
		t.Error("unreplaced libs should be shared")
	}
	if _, err := in.CloneWithLibs(map[string][]byte{"libtorch_cpu.so": {1, 2, 3}}); err == nil {
		t.Error("invalid replacement bytes should fail")
	}
}

func TestGPUPoolFractions(t *testing.T) {
	if gen(t, PyTorch, 0).GPUPoolFraction != 0 {
		t.Error("PyTorch should not preallocate")
	}
	if gen(t, TensorFlow, 0).GPUPoolFraction == 0 {
		t.Error("TensorFlow preallocates GPU memory")
	}
	if gen(t, VLLM, 0).GPUPoolFraction == 0 {
		t.Error("vLLM preallocates the KV-cache pool")
	}
}

func fatbinHasKernel(t *testing.T, fb *fatbin.FatBin, arch gpuarch.SM, name string) bool {
	t.Helper()
	for _, e := range fb.Elements() {
		if e.Arch != arch || e.Kind != fatbin.KindCubin {
			continue
		}
		c, err := cubin.Parse(e.Payload)
		if err != nil {
			t.Fatalf("element %d: %v", e.Index, err)
		}
		if c.FindKernel(name) >= 0 {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkGenerate builds the pytorch20 install (13 blueprints plus a
// 20-library tail) from scratch: what a ring pays, once, for a spec no node
// holds. -cpu 1 is the serial loop; above it the libraries build on
// plan.Each workers.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Framework: PyTorch, TailLibs: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
