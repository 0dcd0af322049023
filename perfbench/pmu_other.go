//go:build !linux

package main

import "errors"

// instrCounter needs Linux's perf_event_open; elsewhere the benchmark
// cannot measure its main metric and refuses to run.
type instrCounter struct{}

func newInstrCounter() (*instrCounter, error) {
	return nil, errors.New("hardware instruction counter unavailable: needs Linux perf events")
}

func (c *instrCounter) read() float64 { return 0 }
func (c *instrCounter) close()        {}
