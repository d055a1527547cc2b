package main

import "testing"

// TestCheckSizes: a sizing flag Config would coerce to a default is
// refused at startup; -disk-mb 0, an unbounded store, is not.
func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name            string
		workers, steps  int
		cacheMB, diskMB int64
		ok              bool
	}{
		{"defaults", 2, 4, 64, 512, true},
		{"unbounded store", 2, 4, 64, 0, true},
		{"zero workers", 0, 4, 64, 512, false},
		{"negative workers", -1, 4, 64, 512, false},
		{"zero cache", 2, 4, 0, 512, false},
		{"negative cache", 2, 4, -1, 512, false},
		{"zero steps", 2, 0, 64, 512, false},
		{"negative steps", 2, -3, 64, 512, false},
		{"negative store", 2, 4, 64, -1, false},
	} {
		err := checkSizes(tc.workers, tc.cacheMB, tc.steps, tc.diskMB)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}
