// Controlflow: the paper's protection covers data faults but explicitly
// defers branch-target faults to signature-based control-flow checking
// (§IV-C). This example composes both: selective duplication + value checks
// for register faults, CFCSS-style signatures for branch faults.
//
//	go run ./examples/controlflow
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	bench, err := softft.GetBenchmark("segm")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		log.Fatal(err)
	}

	prof, err := prog.ProfileValues(bench.TrainInput())
	if err != nil {
		log.Fatal(err)
	}
	hard, _, err := prog.Protect(softft.DuplicationWithValueChecks, prof)
	if err != nil {
		log.Fatal(err)
	}
	full, st, err := prog.Protect(softft.Compose(softft.DuplicationWithValueChecks, softft.ControlFlowChecks), prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segm: %d CFC checks (%d fan-ins uncheckable)\n\n", st.CFCChecks, st.CFCUnchecked)

	programs := []struct {
		name string
		p    *softft.Program
	}{
		{"unprotected", prog},
		{"dup+valchks", hard},
		{"dup+valchks+cfc", full},
	}

	for _, model := range []struct {
		name, faultModel string
	}{
		{"register bit flips", "reg-flip"},
		{"branch-target faults", "branch-target"},
	} {
		fmt.Printf("fault model: %s\n", model.name)
		for _, pr := range programs {
			c := bench.NewCampaign(400)
			c.FaultModel = model.faultModel
			out, err := pr.p.InjectFaults(bench.TestInput(), c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s %s", pr.name, out)
			if out.SWDetected > 0 {
				fmt.Printf("  [dup:%d val:%d cfc:%d]",
					out.SWDetectedDup, out.SWDetectedValue, out.SWDetectedCFC)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	fmt.Println("The duplication/value checks carry the register-fault model; the")
	fmt.Println("signature checks carry the branch-fault model. Composed, the program")
	fmt.Println("is covered against both — exactly the combination the paper proposes.")
}
