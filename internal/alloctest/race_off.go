//go:build !race

package alloctest

// race reports that the race detector is active; its instrumentation
// allocates, so a Meter reads 0 under it.
const race = false
