package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/oblivious"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The streamed sweep the traced run's primitives time: a 256-point
// oblivious α grid on a heterogeneous n=10 instance, streamed as NDJSON in
// chunks of 64 (searchRequests draws the instances).

// sweepReply is a decoded NDJSON sweep stream.
type sweepReply struct {
	header serve.SweepStreamHeader
	chunks []serve.SweepStreamChunk
}

func decodeSweep(body []byte) (sweepReply, error) {
	var r sweepReply
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if err := json.Unmarshal(lines[0], &r.header); err != nil {
		return r, fmt.Errorf("decoding sweep header: %w", err)
	}
	for _, line := range lines[1:] {
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			return r, fmt.Errorf("sweep stream ended with %s", line)
		}
		var c serve.SweepStreamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			return r, fmt.Errorf("decoding sweep chunk: %w", err)
		}
		r.chunks = append(r.chunks, c)
	}
	return r, nil
}

// checkSweep demands exactly the promised points in order, every value a
// probability, and the bin-swap symmetry P(α) = P(1-α) (Lemma 4.4)
// within the exact backend's certified bound.
func checkSweep(req serve.SweepRequest, body []byte) error {
	r, err := decodeSweep(body)
	if err != nil {
		return err
	}
	if r.header.Points != req.Points {
		return fmt.Errorf("sweep header promises %d points, want %d", r.header.Points, req.Points)
	}
	ps := make([]float64, 0, req.Points)
	for _, c := range r.chunks {
		if c.Start != len(ps) {
			return fmt.Errorf("sweep chunk starts at %d after %d points", c.Start, len(ps))
		}
		for _, pt := range c.Points {
			if !(pt.P >= 0 && pt.P <= 1) {
				return fmt.Errorf("sweep P(%v) = %v outside [0, 1]", pt.Param, pt.P)
			}
			ps = append(ps, pt.P)
		}
	}
	if len(ps) != req.Points {
		return fmt.Errorf("sweep streamed %d points, promised %d", len(ps), req.Points)
	}
	bound := oblivious.ExactErrorBound(len(req.Pi), req.Delta, minPi(req.Pi))
	for k := range ps {
		if d := math.Abs(ps[k] - ps[len(ps)-1-k]); d > bound {
			return fmt.Errorf("sweep asymmetry |P(α) - P(1-α)| = %g at point %d, bound %g", d, k, bound)
		}
	}
	return nil
}

// alphaGrid is the sweep's 256-point grid, built as the handler builds
// a from/to/points ramp.
func alphaGrid() []float64 {
	grid := make([]float64, sweepPoints)
	step := 1.0 / float64(sweepPoints-1)
	for k := range grid {
		grid[k] = float64(k) * step
	}
	return grid
}

// engineSweep runs the streamed sweep's engine call with a no-op emit.
func engineSweep(ctx context.Context, eng *engine.Engine, inst engine.Instance, cfg sim.Config) error {
	grid := alphaGrid()
	points := make([]engine.Point, len(grid))
	for k, a := range grid {
		points[k] = engine.Point{Instance: inst, Rule: engine.SymmetricOblivious{A: a}}
	}
	return eng.SweepChunksCtx(ctx, points, engine.SweepOptions{Backend: engine.Exact, Sim: cfg}, sweepChunk,
		func(int, []engine.Result) error { return nil })
}
