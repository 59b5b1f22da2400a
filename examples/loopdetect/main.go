// Command loopdetect demonstrates the Appendix A.4 extension: detecting
// forwarding loops on the fly from the PINT digest, trading counter bits
// (T) against detection delay and false-positive rate.
//
// Run with:
//
//	go run ./examples/loopdetect
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hash"
)

func main() {
	seed := hash.Seed(404)
	prefix := []uint64{0x10, 0x11, 0x12, 0x13, 0x14}
	loop := []uint64{0x20, 0x21, 0x22}
	rng := hash.NewRNG(8)

	fmt.Println("packets enter a 3-switch forwarding loop after a 5-hop prefix")
	fmt.Println()
	fmt.Printf("%-14s %-9s %-16s %-18s\n",
		"config", "overhead", "mean cycles", "false-positive rate")
	for _, tc := range []struct {
		bits int
		T    uint64
	}{
		{16, 0},
		{15, 1},
		{14, 3},
	} {
		d, err := core.NewLoopDetector(tc.bits, tc.T, seed)
		if err != nil {
			log.Fatal(err)
		}
		// Detection delay over looping packets.
		var cycles, detected int
		for i := 0; i < 5000; i++ {
			if c := d.RunWithLoop(rng.Uint64(), prefix, loop, 200); c > 0 {
				cycles += c
				detected++
			}
		}
		// False positives on loop-free 32-hop paths.
		fp := d.FalsePositiveRate(32, 500000, 1)
		fmt.Printf("b=%-2d T=%-6d %2d bits   %6.2f (of %d%%)   %.2e per packet\n",
			tc.bits, tc.T, d.OverheadBits(),
			float64(cycles)/float64(max(detected, 1)), detected/50, fp)
	}
	fmt.Println()
	fmt.Println("A.4's trade-off: higher T slows detection by a few loop cycles but")
	fmt.Println("drives the false-positive probability low enough for production use.")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
