//go:build !race

package revive

const raceEnabled = false
