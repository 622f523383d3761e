//go:build !race

package realenv

const raceEnabled = false
