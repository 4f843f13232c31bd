package main

import "qswitch/internal/packet"

// buildGenerator resolves the shared traffic/value names; the mapping
// lives in internal/packet so tracegen and switchsim always agree.
func buildGenerator(traffic, values string, load float64) (packet.Generator, error) {
	return packet.GeneratorByName(traffic, values, load)
}
