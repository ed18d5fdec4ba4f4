// Multiproc demonstrates the paper's §5.4 context-switch support: one
// IPDS hardware unit timeshared between two protected processes. Each
// process's BSV/BCV/BAT stack state is suspended and resumed at every
// scheduling quantum (the paper swaps the ~1K-bit stack tops on the
// critical path and restores lower layers lazily); detection state
// survives the interleaving, and tampering one process is attributed
// to that process only.
//
//	go run ./examples/multiproc
package main

import (
	"fmt"
	"log"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workload"
)

type process struct {
	name   string
	vm     *vm.VM
	st     *ipds.ProcessState
	alarms []ipds.Alarm // raised while this process's VM ran
}

func main() {
	// Two different protected programs share the hardware.
	telnetd := workload.ByName("telnetd")
	ftpd := workload.ByName("wu-ftpd")

	artA := pipeline.MustCompile(telnetd.Source, ir.DefaultOptions)
	artB := pipeline.MustCompile(ftpd.Source, ir.DefaultOptions)

	// One hardware unit; per-process state lives in ProcessState.
	hw := ipds.New(artA.Image, ipds.DefaultConfig)

	vA := vm.New(artA.Prog, vm.DefaultConfig, telnetd.AttackSession)
	vB := vm.New(artB.Prog, vm.DefaultConfig, ftpd.AttackSession)
	procs := []*process{{name: "telnetd", vm: vA}, {name: "wu-ftpd", vm: vB}}
	for _, p := range procs {
		ipds.Attach(p.vm, hw, func(a ipds.Alarm) { p.alarms = append(p.alarms, a) })
	}

	// Boot both processes, capturing each one's initial IPDS state.
	if err := vA.Start(); err != nil {
		log.Fatal(err)
	}
	procs[0].st = hw.Suspend()
	hwB := ipds.New(artB.Image, ipds.DefaultConfig)
	hw.Resume(hwB.Suspend()) // bind the unit to B's image
	if err := vB.Start(); err != nil {
		log.Fatal(err)
	}
	procs[1].st = hw.Suspend()

	// Mid-run, forge telnetd's administrator flag (a guest session is
	// active at that point), while B keeps timesharing the same checker.
	tamperAt, tampered := uint64(200), false
	vA.AddHooks(vm.Hooks{OnStep: func(step uint64) {
		if tampered || step < tamperAt {
			return
		}
		for _, id := range vA.ActiveObjects(true) {
			obj := artA.Prog.Object(id)
			if obj.Name == "main.isadmin" {
				addr, ok := vA.AddrOfObj(id)
				if ok {
					_ = vA.Poke(addr, 1, 8) // forge administrator privilege
					tampered = true
				}
			}
		}
	}})

	// Round-robin scheduler, 97 steps per quantum.
	const quantum = 97
	switches := 0
	cur := -1
	for !vA.Done() || !vB.Done() {
		next := -1
		for i, p := range procs {
			if !p.vm.Done() && (next < 0 || i != cur) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		if cur != next {
			if cur >= 0 {
				procs[cur].st = hw.Suspend()
			}
			hw.Resume(procs[next].st)
			switches++
			cur = next
		}
		for i := 0; i < quantum && !procs[cur].vm.Done(); i++ {
			procs[cur].vm.Step()
		}
	}
	procs[cur].st = hw.Suspend()

	fmt.Printf("scheduled %d context switches (critical state per switch: ~%d bits)\n",
		switches, procs[0].st.CriticalBits())
	for _, p := range procs {
		res := p.vm.Result()
		fmt.Printf("%-8s exited=%v steps=%d branches-checked=%d alarms=%d\n",
			p.name, res.Status, res.Steps, p.st.Stats().Verified, p.st.Stats().Alarms)
		for _, a := range p.alarms {
			fmt.Printf("         ALARM: %s\n", a)
		}
	}
	if procs[0].st.Stats().Alarms == 0 {
		fmt.Println("note: tampering landed outside a live window this run")
	}
	if procs[1].st.Stats().Alarms != 0 {
		log.Fatal("BUG: alarm attributed to the untampered process")
	}
}
