package dserve_test

import (
	"fmt"

	"negativaml/internal/dserve"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
)

// Example shows the in-process batch API: one install union-debloated
// against two workloads, then a warm repeat served from the stage memo's
// memory tiers.
func Example() {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	specs := []dserve.WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "Transformer", Train: true, Batch: 128},
	}
	ws := make([]mlruntime.Workload, len(specs))
	for i, sp := range specs {
		if ws[i], err = sp.Workload(in); err != nil {
			fmt.Println(err)
			return
		}
	}

	svc := dserve.NewService(dserve.Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()

	cold, err := svc.DebloatBatch(in, ws, dserve.BatchOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	warm, err := svc.DebloatBatch(in, ws, dserve.BatchOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("cold: verified=%v hits=%d\n", cold.AllVerified(), cold.CacheHits)
	fmt.Printf("warm: verified=%v misses=%d reuses=%d\n", warm.AllVerified(), warm.CacheMisses, warm.ProfileReuses)
	// Output:
	// cold: verified=true hits=0
	// warm: verified=true misses=0 reuses=2
}
