package main

import (
	"bytes"
	"image/jpeg"
	"sync"
	"time"
)

// The calibrated clock.
//
// The box this benchmark was written on — a 2-core VM sharing its host —
// runs the same code at speeds that drift by tens of per cent over minutes
// and burst within a second (measured: the median round of one workload,
// same seed, ten runs in a row, spread by 3 % in a quiet stretch and by 62 %
// in a loud one). No bound the benchmark may set survives that, so every
// time it reports is taken on a calibrated clock: between any two rounds
// the yardstick below runs for a slot, and a round's times are scaled by
// how slow the yardstick ran on either side of it. The yardstick is the
// standard library's JPEG decoder on fixed inputs — toolchain code no change
// to this repository can reach, with an allocation and memory profile close
// to the system's own work, which is what the neighbours' noise hits.
// Calibrated, the same ten runs spread by 4 to 8 %.
const (
	yardstickImages = 64 // decodes per goroutine per slot, about 40 ms
	// yardstickNominal is what one yardstick decode takes on that box when it
	// is quiet. It only fixes the scale: on such a box a calibrated second is
	// a second.
	yardstickNominal = 400 * time.Microsecond
)

type yardstick struct {
	inputs [][]byte // the same images whatever the seed
}

// slot runs the yardstick on lanes goroutines and returns how slow the
// machine is at this moment: the slot's time over its nominal time, 1 on the
// quiet reference box and above when something slows it. lanes is how many
// goroutines the work being calibrated keeps busy: a neighbour that takes one
// of two cores halves a two-lane workload and leaves a one-lane one alone.
func (y *yardstick) slot(lanes int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < lanes; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < yardstickImages; i++ {
				if _, err := jpeg.Decode(bytes.NewReader(y.inputs[(g*yardstickImages+i)%len(y.inputs)])); err != nil {
					panic(err) // the inputs are the benchmark's own encodes
				}
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / (float64(yardstickNominal) * yardstickImages)
}

// clock is the factor that turns a time measured between two slots into
// calibrated time.
func clock(before, after float64) float64 { return 2 / (before + after) }

// timed runs f between two slots and returns the clock factor for whatever
// f timed.
func (y *yardstick) timed(lanes int, f func() error) (float64, error) {
	before := y.slot(lanes)
	err := f()
	return clock(before, y.slot(lanes)), err
}
