//go:build !race

package alloctest

// race reports that the race detector is active; its instrumentation
// allocates, so the malloc half of a pin is skipped under it.
const race = false
