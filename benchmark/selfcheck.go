package main

import (
	"fmt"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/machine"
	"kali/internal/relax"
)

// selfCheck holds the measurement apparatus to two properties, for
// the workloads selected, before anything is timed:
//
//   - twin equivalence: a Go-API twin reports the same messages,
//     bytes, schedule builds and simulated total time as the program
//     it mirrors (and the same, correct, answer);
//   - determinism: a simulator workload's first op, run twice, gives
//     bit-identical simulated statistics.
func selfCheck(seed int64, sz sizes, ws []workload) error {
	salt := saltOf(seed)
	for _, w := range ws {
		switch w.Name {
		case "stencil-vm":
			n, sweeps := sz.stencilN, sz.stencilSweeps
			run := func() (core.Report, error) {
				prog, err := lang.Compile(jacobi2dSource(n, sweeps, salt))
				if err != nil {
					return core.Report{}, err
				}
				res, err := prog.Run(core.Config{P: simP, Params: machine.NCUBE7(), Backend: "sim"})
				if err != nil {
					return core.Report{}, err
				}
				return res.Report, nil
			}
			first, err := run()
			if err != nil {
				return err
			}
			again, err := run()
			if err != nil {
				return err
			}
			twin, u, _ := jacobi2dTwin(n, sweeps, salt, nil, 0, -1)
			if err := sameRun(w.Name, first, again, twin); err != nil {
				return err
			}
			if !closeTo(u, refJacobi2D(n, sweeps, salt)) {
				return fmt.Errorf("%s: twin result differs from the reference", w.Name)
			}
		case "mesh-inspector":
			m := genMeshes(seed, 1, sz.meshSide)[0]
			opt := relax.Options{Mesh: m, Sweeps: sz.meshSweeps, P: simP, Params: machine.NCUBE7(), Gather: true}
			first, again := relax.Run(opt), relax.Run(opt)
			twin, vals, _ := relaxTwin(m, sz.meshSweeps, simP, nil, 0, -1)
			if err := sameRun(w.Name, first.Report, again.Report, twin); err != nil {
				return err
			}
			if !closeTo(vals, first.Values) {
				return fmt.Errorf("%s: twin result differs from relax.Run", w.Name)
			}
		case "tenants-http":
			p := genTenantMix(seed).draw(clientRNG(seed, 0))
			var reps [2]core.Report
			for k := range reps {
				srv, err := newTenantServer("")
				if err != nil {
					return err
				}
				res, err := srv.Run(p.src)
				if err != nil {
					return err
				}
				reps[k] = res.Report
			}
			if reps[0] != reps[1] {
				return fmt.Errorf("%s: first request is not deterministic:\n  %+v\n  %+v", w.Name, reps[0], reps[1])
			}
		}
	}
	return nil
}

// sameRun checks determinism (first == again, every field) and twin
// equivalence (traffic, builds and simulated time).
func sameRun(name string, first, again, twin core.Report) error {
	if first != again {
		return fmt.Errorf("%s: first op is not deterministic:\n  %+v\n  %+v", name, first, again)
	}
	if twin.MsgsSent != first.MsgsSent || twin.BytesSent != first.BytesSent ||
		twin.Builds != first.Builds || twin.Total != first.Total {
		return fmt.Errorf("%s: twin differs from the program it mirrors: msgs %d vs %d, bytes %d vs %d, builds %d vs %d, sim total %v vs %v",
			name, twin.MsgsSent, first.MsgsSent, twin.BytesSent, first.BytesSent, twin.Builds, first.Builds, twin.Total, first.Total)
	}
	return nil
}
