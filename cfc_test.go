package softft

import "testing"

func TestControlFlowChecksPreserveSemantics(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	checked, stats, err := prog.Protect(ControlFlowChecks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CFCChecks == 0 {
		t.Fatalf("no signature checks inserted: %+v", stats)
	}
	base, err := prog.Run(testInput())
	if err != nil {
		t.Fatal(err)
	}
	prot, err := checked.Run(testInput())
	if err != nil {
		t.Fatal(err)
	}
	if prot.CheckFailures != 0 {
		t.Fatalf("CFC false positives: %d", prot.CheckFailures)
	}
	b, _ := base.Ints("out")
	p, _ := prot.Ints("out")
	for i := range b {
		if b[i] != p[i] {
			t.Fatalf("CFC changed out[%d]", i)
		}
	}
}

func TestControlFlowChecksComposeWithProtection(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	prof, err := prog.ProfileValues(testInput())
	if err != nil {
		t.Fatal(err)
	}
	both, stats, err := prog.Protect(Compose(DuplicationWithValueChecks, ControlFlowChecks), prof)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ValueChecks+stats.DupChecks == 0 || stats.CFCChecks == 0 {
		t.Fatalf("composition dropped a part: %+v", stats)
	}
	res, err := both.Run(testInput())
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckFailures != 0 {
		t.Fatalf("composed protection fired %d checks fault-free", res.CheckFailures)
	}
}

func TestBranchTargetCampaign(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	checked, _, err := prog.Protect(ControlFlowChecks, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Trials: 200, Seed: 3, Output: "out", FaultModel: "branch-target"}
	plain, err := prog.InjectFaults(testInput(), c)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := checked.InjectFaults(testInput(), c)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SWDetected != 0 {
		t.Error("uninstrumented program detected branch faults")
	}
	if prot.SWDetectedCFC == 0 {
		t.Fatalf("CFC detected nothing: %+v", prot)
	}
	if prot.USDCs+prot.SDCs > plain.USDCs+plain.SDCs {
		t.Errorf("CFC increased corruptions: %d+%d vs %d+%d", prot.USDCs, prot.SDCs, plain.USDCs, plain.SDCs)
	}
	t.Logf("branch faults: plain=%s  cfc=%s", plain, prot)
}
