//go:build !race

package zipper

const raceEnabled = false
