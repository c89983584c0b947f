package netlist

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
)

// stackedStacks is the profitable compound target used across the suite.
func stackedStacks() *logic.Network {
	n := logic.New("stacked")
	stack := func(base byte) int {
		var br []int
		for b := 0; b < 3; b++ {
			x := n.AddInput(string(base + byte(3*b)))
			y := n.AddInput(string(base + byte(3*b+1)))
			z := n.AddInput(string(base + byte(3*b+2)))
			br = append(br, n.AddGate(logic.And, n.AddGate(logic.And, x, y), z))
		}
		return n.AddGate(logic.Or, n.AddGate(logic.Or, br[0], br[1]), br[2])
	}
	n.AddOutput("f", n.AddGate(logic.And, stack('a'), stack('j')))
	return n
}

// TestCompoundSpiceDeviceModels is a regression test: every device in the
// deck must carry the model its type demands — in particular the static
// output stage's pull-ups (OutP) are pMOS.
func TestCompoundSpiceDeviceModels(t *testing.T) {
	res, err := mapper.DominoMap(stackedStacks(), mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := mapper.CompoundTransform(res, mapper.DefaultCompoundOptions())
	if cs.Converted != 1 {
		t.Fatalf("precondition: %+v", cs)
	}
	c, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	checked := 0
	sawOutP := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "M") || strings.HasPrefix(line, "MI") {
			continue
		}
		fields := strings.Fields(line)
		id, err := strconv.Atoi(fields[0][1:])
		if err != nil {
			t.Fatalf("device line %q: %v", line, err)
		}
		wantModel := "nsoi"
		if c.Devices[id].Type.PMOS() {
			wantModel = "psoi"
		}
		if c.Devices[id].Type == OutP {
			sawOutP = true
		}
		if fields[5] != wantModel {
			t.Fatalf("device %d (%s) emitted as %s, want %s: %q",
				id, c.Devices[id].Type, fields[5], wantModel, line)
		}
		checked++
	}
	if checked != len(c.Devices) {
		t.Fatalf("checked %d of %d devices", checked, len(c.Devices))
	}
	if !sawOutP {
		t.Fatal("no OutP device in the compound deck")
	}
}

func TestPMOSClassification(t *testing.T) {
	pmos := []DeviceType{PPrecharge, PKeeper, PDischarge, InvP, OutP}
	nmos := []DeviceType{NPulldown, NFoot, InvN, OutN}
	for _, ty := range pmos {
		if !ty.PMOS() {
			t.Errorf("%s should be pMOS", ty)
		}
	}
	for _, ty := range nmos {
		if ty.PMOS() {
			t.Errorf("%s should be nMOS", ty)
		}
	}
}
