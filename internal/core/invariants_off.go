//go:build !invariants

package core

import "gpclust/internal/gpusim"

// assertDeviceClean is a no-op in the default build; the invariants build
// (-tags invariants, see invariants_on.go) replaces it with a teardown leak
// check.
func assertDeviceClean(*gpusim.Device) {}

// assertTupleBlocks is a no-op in the default build; the invariants build
// checks that pre-sized tuple streams end exactly full.
func assertTupleBlocks([][]tuple, int) {}
