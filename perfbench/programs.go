package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"uhm/internal/core"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

// program is one generated request: the body sent to /v1/run and the two
// answers every reply is checked against.
type program struct {
	name   string
	source string
	body   []byte
	// output is the generator's oracle output (the HLR tree walker's).
	output []int64
	// want is what full simulation reports for the program under the
	// request's organisation.
	want simStats
}

// simStats are the simulated statistics a reply must repeat exactly.
type simStats struct {
	Instructions int64
	TotalCycles  int64
	DTBHitRatio  float64
}

// runBody is the /v1/run request: submitted source under the dtb
// organisation, every other field at the server's default.
type runBody struct {
	Source   string `json:"source"`
	Name     string `json:"name"`
	Strategy string `json:"strategy"`
}

// seedStride separates the generator seeds of consecutive benchmark seeds,
// so two benchmark seeds never share a program.
const seedStride = 1_000_003

// The generator's step counts are heavy-tailed: a few programs run 100× the
// median, and one of them in a small working set would set the whole
// workload's cost.  Every workload therefore draws programs of a stated
// size, those whose oracle run takes between minSteps and maxSteps steps,
// so that a different seed changes which programs run but not how much
// work they are.
const minSteps, maxSteps = 1000, 3000

// generatePrograms draws n distinct programs in the size band, cycling
// through the generator archetypes, and computes each one's full-simulation
// statistics.  The same seed always yields the same programs.
func generatePrograms(seed int64, n int) ([]*program, error) {
	archs := workload.ArchetypeNames()
	progs := make([]*program, n)
	errs := make([]error, len(archs))
	var wg sync.WaitGroup
	// Each archetype walks its own seed stream, so acceptance order is
	// deterministic however the goroutines interleave.
	for a, arch := range archs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := seed * seedStride
			for i := a; i < n && errs[a] == nil; i += len(archs) {
				for {
					g, err := workload.GenerateArchetype(arch, next)
					next++
					if err != nil {
						errs[a] = err
						break
					}
					if g.OracleSteps >= minSteps && g.OracleSteps <= maxSteps {
						progs[i], errs[a] = makeProgram(g)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, n)
	for _, p := range progs {
		if seen[p.source] {
			return nil, fmt.Errorf("generator produced program %s twice", p.name)
		}
		seen[p.source] = true
	}
	return progs, nil
}

// makeProgram turns a generated program into a request and simulates it in
// full for the statistics its replies must carry.
func makeProgram(g *gen.Program) (*program, error) {
	art, err := core.BuildSource(g.Name, g.Source, core.LevelStack)
	if err != nil {
		return nil, err
	}
	rep, err := core.RunSimulated(art, core.WithDTB, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", g.Name, err)
	}
	if !slices.Equal(rep.Output, g.Output) {
		return nil, fmt.Errorf("%s: simulated output %v differs from the oracle's %v", g.Name, rep.Output, g.Output)
	}
	body, err := json.Marshal(runBody{Source: g.Source, Name: g.Name, Strategy: "dtb"})
	if err != nil {
		return nil, err
	}
	return &program{
		name:   g.Name,
		source: g.Source,
		body:   body,
		output: g.Output,
		want: simStats{
			Instructions: rep.Instructions,
			TotalCycles:  int64(rep.TotalCycles),
			DTBHitRatio:  rep.Measured.HD,
		},
	}, nil
}

// digest hashes the programs' simulated statistics in request order: equal
// seeds must give equal digests on every commit whose simulator is unchanged.
func digest(progs []*program) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range progs {
		for _, v := range []uint64{uint64(p.want.Instructions), uint64(p.want.TotalCycles), math.Float64bits(p.want.DTBHitRatio)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// runReply is the part of a /v1/run reply the benchmark checks.
type runReply struct {
	Report struct {
		Output       []int64 `json:"output"`
		Instructions int64   `json:"instructions"`
		TotalCycles  int64   `json:"total_cycles"`
		DTBHitRatio  float64 `json:"dtb_hit_ratio"`
	} `json:"report"`
}

// check reports why a reply body is not the program's correct answer, or ""
// when it is.
func (p *program) check(body []byte) string {
	var r runReply
	if err := json.Unmarshal(body, &r); err != nil {
		return "undecodable reply: " + err.Error()
	}
	return p.verify(r.Report.Output, simStats{r.Report.Instructions, r.Report.TotalCycles, r.Report.DTBHitRatio})
}

// verify compares an answer with the oracle output and the full-simulation
// statistics.
func (p *program) verify(output []int64, got simStats) string {
	if !slices.Equal(output, p.output) {
		return fmt.Sprintf("%s: output %v, oracle %v", p.name, output, p.output)
	}
	if got != p.want {
		return fmt.Sprintf("%s: statistics %+v, full simulation %+v", p.name, got, p.want)
	}
	return ""
}
