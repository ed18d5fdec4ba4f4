package ipds

import (
	"repro/internal/ir"
	"repro/internal/vm"
)

// Attach wires a Machine to a VM execution: function entries and exits
// push and pop table frames, and every committed conditional branch is
// sent to the detector. This is the software model of the hardware path
// "each committed branch is sent to the IPDS" (§5.4). onAlarm, if not
// nil, is called with each alarm as its branch commits — the software
// form of the exception the hardware raises; the machine keeps no copy.
func Attach(v *vm.VM, m *Machine, onAlarm func(Alarm)) {
	v.AddHooks(vm.Hooks{
		OnCall: func(fn *ir.Func) { m.EnterFunc(fn.Base) },
		OnRet:  func(fn *ir.Func) { m.LeaveFunc() },
		OnBranch: func(br *ir.Instr, taken bool) {
			if a, _ := m.OnBranch(br.PC, taken); a != nil && onAlarm != nil {
				onAlarm(*a)
			}
		},
	})
}
