//go:build !race

package metaclass

const raceEnabled = false
