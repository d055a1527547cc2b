package main

import (
	"fmt"
	"math/rand"

	"negativaml/internal/dserve"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
)

// row is one benchmark input: a generated install shaped like a row of the
// paper's Table 1 (internal/experiments/specs.go) plus the member workloads
// debloated against it. Installs come from mlframework.Generate, which is
// deterministic and downloads nothing.
type row struct {
	name      string
	framework string // request spelling, as JobRequest.Framework takes it
	tail      int
	maxSteps  int
	specs     []dserve.WorkloadSpec

	in    *mlframework.Install
	input int64 // library bytes submitted per op
}

// cvnlp is the four CV/NLP members of Table 1; llama the single LLM member.
var (
	cvnlp = []dserve.WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
		{Model: "Transformer", Batch: 32, Device: "A100"},
		{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
	}
	llama = []dserve.WorkloadSpec{{Model: "Llama2", Batch: 1}}
)

// newRows returns fresh, ungenerated rows by name. pytorch20 is the shape
// BENCH_serve.json's cluster3 entries used; the gw rows are the gateway
// workload's six pre-warmed requests (two installs × member-set prefixes).
func newRows(names ...string) []*row {
	table := map[string]row{
		"pytorch141":    {framework: "pytorch", tail: 141, maxSteps: 4, specs: cvnlp},
		"tensorflow388": {framework: "tensorflow", tail: 388, maxSteps: 4, specs: cvnlp},
		"vllm155":       {framework: "vllm", tail: 155, maxSteps: 4, specs: llama},
		"hf85":          {framework: "transformers", tail: 85, maxSteps: 4, specs: llama},
		"pytorch20":     {framework: "pytorch", tail: 20, maxSteps: 4, specs: cvnlp},
	}
	for _, tail := range []int{8, 20} {
		for _, n := range []int{1, 2, 4} {
			table[fmt.Sprintf("gw%dx%d", tail, n)] = row{framework: "pytorch", tail: tail, maxSteps: 2, specs: cvnlp[:n]}
		}
	}
	rows := make([]*row, len(names))
	for i, name := range names {
		r, ok := table[name]
		if !ok {
			panic("bench: unknown row " + name)
		}
		r.name = name
		rows[i] = &r
	}
	return rows
}

// generate builds the row's install.
func (r *row) generate() error {
	fw, err := dserve.ResolveFramework(r.framework)
	if err != nil {
		return err
	}
	r.in, err = mlframework.Generate(mlframework.Config{Framework: fw, TailLibs: r.tail})
	if err != nil {
		return fmt.Errorf("generate %s: %w", r.name, err)
	}
	r.input = r.in.TotalFileSize()
	return nil
}

// workloads materializes the row's members against an install (the row's
// own, or the copy an ingest produced from its tree).
func (r *row) workloads(in *mlframework.Install) ([]mlruntime.Workload, error) {
	ws := make([]mlruntime.Workload, len(r.specs))
	for i, sp := range r.specs {
		w, err := sp.Workload(in)
		if err != nil {
			return nil, fmt.Errorf("row %s member %d: %w", r.name, i, err)
		}
		ws[i] = w
	}
	return ws, nil
}

// request is the row as a job submission; the service regenerates the
// install from framework and tail, which is deterministic.
func (r *row) request() dserve.JobRequest {
	return dserve.JobRequest{Framework: r.framework, TailLibs: r.tail, MaxSteps: r.maxSteps, Workloads: r.specs}
}

// rotation is the order a closed-loop workload visits its rows in, drawn
// from the seed and then repeated round-robin.
func rotation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
