package negativa

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/plan"
)

// InstallFingerprint hashes an install's identity: framework, library names
// in load order, and every library's content digest. Two installs with
// identical content fingerprint identically, so profiles detected on one
// serve the other. It anchors the detect stage's content key (detection
// depends on what code the workload can touch) and with it the serving
// plane's stored profiles.
//
// Hashing each library's memoized ContentDigest instead of its raw bytes
// makes the fingerprint share hash work with the locate/compact stage keys
// and the analysis-index memo. The fingerprint is the first thing every
// pipeline entry point asks of an install, so this is where a cold
// install's indexes get built: the libraries that have none are indexed
// across CPUs first, and the digests are then hashed in name order. An
// install whose libraries are indexed fingerprints in O(names) on the
// caller's goroutine, so callers need no memo of their own.
func InstallFingerprint(in *mlframework.Install) string {
	var cold []*elfx.Library
	for _, name := range in.LibNames {
		if lib := in.Library(name); lib != nil && !lib.Indexed() {
			cold = append(cold, lib)
		}
	}
	plan.Each(len(cold), func(i int) { cold[i].Index() })

	// Staged through a fixed scratch, flushed into the hash when full, as in
	// LocateKey: io.WriteString of each name allocates once per name.
	h := sha256.New()
	var scratch [1024]byte
	buf := append(append(scratch[:0], in.Framework...), 0)
	for _, name := range in.LibNames {
		if len(buf)+len(name)+2+sha256.Size > len(scratch) {
			h.Write(buf)
			buf = scratch[:0]
		}
		buf = append(append(buf, name...), 0)
		if lib := in.Library(name); lib != nil {
			d := lib.ContentDigest()
			buf = append(buf, d[:]...)
		}
		buf = append(buf, 0)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// WorkloadIdentity canonically identifies a workload configuration for
// profile reuse. Everything that shapes what detection observes — graph,
// devices, load mode, dataset, epochs, per-item compute, and the step cap
// (the reference digest depends on it) — is part of the identity.
func WorkloadIdentity(w mlruntime.Workload, maxSteps int) string {
	devs := make([]string, len(w.Devices))
	for i, d := range w.Devices {
		devs[i] = d.Arch.String()
	}
	var model string
	var ops, batch int
	var train bool
	if w.Graph != nil {
		model, ops, batch, train = w.Graph.Model, len(w.Graph.Ops), w.Graph.Batch, w.Graph.Train
	}
	return fmt.Sprintf("%s|model=%s|ops=%d|batch=%d|train=%v|epochs=%d|data=%s|mode=%s|devs=%s|pic=%s|steps=%d",
		w.Name, model, ops, batch, train, w.Epochs, w.Data.Name, w.Mode, strings.Join(devs, ","), w.PerItemCompute, maxSteps)
}
