package experiments

import (
	"fmt"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
)

// Spec is one evaluated workload — a row of Table 1 plus the device setup
// and the calibrated per-item compute cost.
type Spec struct {
	Framework string
	Model     string
	Train     bool
	Batch     int
	Epochs    int
	Data      dataset.Dataset
	// TailLibs sizes the dependency tail so the library count matches the
	// paper's #Lib column.
	TailLibs int
	Devices  []gpuarch.Device
	Mode     cudasim.LoadMode
	// PerItemCompute calibrates virtual compute time; cmd/experiments
	// prints what it yields.
	PerItemCompute time.Duration
	// InferSteps caps inference runs ("only one batch from test set is
	// used" for the CV/NLP inference rows of Table 1); 0 = full split.
	InferSteps int
	// PaperExecTime is Table 5's reported execution time (for the record).
	PaperExecTime time.Duration
}

// Name renders the canonical workload name used across tables.
func (s Spec) Name() string {
	return fmt.Sprintf("%s/%s/%s", s.Framework, s.mode(), s.Model)
}

func (s Spec) mode() string {
	if s.Train {
		return "Train"
	}
	return "Inference"
}

// Graph builds the model graph for the spec.
func (s Spec) Graph() *models.Graph {
	switch s.Model {
	case "MobileNetV2":
		return models.MobileNetV2(s.Train, s.Batch)
	case "Transformer":
		return models.Transformer(s.Train, s.Batch)
	case "Llama2":
		return models.LLM(models.Llama2(s.Framework == mlframework.VLLM, len(s.Devices)))
	}
	panic("experiments: unknown model " + s.Model)
}

// t4 is the single-GPU device setup of Table 1's main evaluation.
var t4 = []gpuarch.Device{gpuarch.T4}

// Table1Specs returns the ten evaluated workloads of Table 1, with library
// tails sized to the paper's #Lib column and compute calibrated to Table 5's
// execution times.
func Table1Specs() []Spec {
	return []Spec{
		{
			Framework: mlframework.PyTorch, Model: "MobileNetV2", Train: true,
			Batch: 16, Epochs: 3, Data: dataset.CIFAR10, TailLibs: 100,
			Devices: t4, PerItemCompute: 1030 * time.Microsecond,
			PaperExecTime: 179 * time.Second,
		},
		{
			Framework: mlframework.PyTorch, Model: "MobileNetV2", Train: false,
			Batch: 1, Data: dataset.CIFAR10, TailLibs: 98,
			Devices: t4, PerItemCompute: 400 * time.Millisecond, InferSteps: 1,
			PaperExecTime: 8 * time.Second,
		},
		{
			Framework: mlframework.TensorFlow, Model: "MobileNetV2", Train: true,
			Batch: 16, Epochs: 3, Data: dataset.CIFAR10, TailLibs: 243,
			Devices: t4, PerItemCompute: 270 * time.Microsecond,
			PaperExecTime: 53 * time.Second,
		},
		{
			Framework: mlframework.TensorFlow, Model: "MobileNetV2", Train: false,
			Batch: 1, Data: dataset.CIFAR10, TailLibs: 241,
			Devices: t4, PerItemCompute: 5 * time.Second, InferSteps: 1,
			PaperExecTime: 12 * time.Second,
		},
		{
			Framework: mlframework.PyTorch, Model: "Transformer", Train: true,
			Batch: 128, Epochs: 3, Data: dataset.Multi30k, TailLibs: 141,
			Devices: t4, PerItemCompute: 2200 * time.Microsecond,
			PaperExecTime: 200 * time.Second,
		},
		{
			Framework: mlframework.PyTorch, Model: "Transformer", Train: false,
			Batch: 32, Data: dataset.Multi30k, TailLibs: 141,
			Devices: t4, PerItemCompute: 230 * time.Millisecond, InferSteps: 1,
			PaperExecTime: 13 * time.Second,
		},
		{
			Framework: mlframework.TensorFlow, Model: "Transformer", Train: true,
			Batch: 128, Epochs: 1, Data: dataset.WMT14, TailLibs: 388,
			Devices: t4, PerItemCompute: 1050 * time.Microsecond,
			PaperExecTime: 4779 * time.Second,
		},
		{
			Framework: mlframework.TensorFlow, Model: "Transformer", Train: false,
			Batch: 32, Data: dataset.WMT14, TailLibs: 386,
			Devices: t4, PerItemCompute: 1900 * time.Millisecond, InferSteps: 1,
			PaperExecTime: 69 * time.Second,
		},
		{
			Framework: mlframework.VLLM, Model: "Llama2", Train: false,
			Batch: 1, Data: dataset.ManualInput, TailLibs: 155,
			Devices: t4, PerItemCompute: 350 * time.Millisecond,
			PaperExecTime: 43 * time.Second,
		},
		{
			Framework: mlframework.HFTransformers, Model: "Llama2", Train: false,
			Batch: 1, Data: dataset.ManualInput, TailLibs: 85,
			Devices: t4, PerItemCompute: 80 * time.Millisecond,
			PaperExecTime: 21 * time.Second,
		},
	}
}

// H100Specs returns the §4.5 single-H100 LLM inference workloads, eager and
// lazy (Tables 6 and 7).
func H100Specs(mode cudasim.LoadMode) []Spec {
	h100 := []gpuarch.Device{gpuarch.H100}
	return []Spec{
		{
			Framework: mlframework.VLLM, Model: "Llama2", Train: false,
			Batch: 1, Data: dataset.ManualInput, TailLibs: 155,
			Devices: h100, Mode: mode, PerItemCompute: 320 * time.Millisecond,
			PaperExecTime: 44 * time.Second,
		},
		{
			Framework: mlframework.HFTransformers, Model: "Llama2", Train: false,
			Batch: 1, Data: dataset.ManualInput, TailLibs: 80,
			Devices: h100, Mode: mode, PerItemCompute: 95 * time.Millisecond,
			PaperExecTime: 23 * time.Second,
		},
	}
}

func (s Spec) workloadWith(in *mlframework.Install) mlruntime.Workload {
	return mlruntime.Workload{
		Name:           s.Name(),
		Install:        in,
		Graph:          s.Graph(),
		Devices:        s.Devices,
		Mode:           s.Mode,
		Data:           s.Data,
		Epochs:         s.Epochs,
		PerItemCompute: s.PerItemCompute,
	}
}
