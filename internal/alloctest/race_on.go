//go:build race

package alloctest

const race = true
