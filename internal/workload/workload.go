// Package workload provides the ten vulnerable server programs used in
// the paper's evaluation (telnetd, wu-ftpd, xinetd, crond, sysklogd,
// atftpd, httpd, sendmail, sshd, portmap), re-created in MiniC.
//
// The originals are tens of thousands of lines of C; what the
// experiments actually exercise is their *shape*: a command loop over
// attacker-influenced input, memory-resident authentication/privilege/
// mode state consulted at multiple program points, and unbounded copies
// into fixed stack buffers (the vulnerability classes of the paper:
// buffer overflow and format string). Each re-creation preserves that
// shape — the same protocol state machines, privilege checks and
// vulnerable copies — at a few hundred lines each, which is what the
// branch-correlation analysis and the tampering campaigns need.
package workload

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Workload is one server program plus the sessions that drive it.
type Workload struct {
	Name string
	Vuln string // the original program's headline vulnerability class

	// Source is the MiniC program text.
	Source string

	// AttackSession is the input used for the detection campaigns: a
	// benign session long enough to open many tamper windows.
	AttackSession []string

	// ExtraSessions are additional benign sessions exercising other
	// protocol paths; campaigns and the false-positive suite run over
	// all of them.
	ExtraSessions [][]string

	// PerfSession drives the performance runs (Figure 9); built by
	// repeating the server's command mix.
	PerfSession []string
}

// Sessions returns every benign session: the attack session first,
// then the extras.
func (w *Workload) Sessions() [][]string {
	out := [][]string{w.AttackSession}
	return append(out, w.ExtraSessions...)
}

// All returns the ten servers in the paper's order. Each call returns
// its own copies: a caller may change them freely.
func All() []*Workload {
	built := builtAll()
	out := make([]*Workload, len(built))
	for i, w := range built {
		out[i] = w.clone()
	}
	return out
}

// builtAll builds the ten workloads once; All and ByName hand out
// copies, so building every perf session's command lines is paid once
// per process, not per call.
var builtAll = sync.OnceValue(func() []*Workload {
	return []*Workload{
		Telnetd(), WuFTPD(), Xinetd(), Crond(), Sysklogd(),
		ATFTPD(), HTTPD(), Sendmail(), SSHD(), Portmap(),
	}
})

// clone copies w deeply enough that changing the copy — its fields or
// the elements of its session slices — leaves w as it was.
func (w *Workload) clone() *Workload {
	c := *w
	c.AttackSession = slices.Clone(w.AttackSession)
	c.PerfSession = slices.Clone(w.PerfSession)
	c.ExtraSessions = make([][]string, len(w.ExtraSessions))
	for i, s := range w.ExtraSessions {
		c.ExtraSessions[i] = slices.Clone(s)
	}
	return &c
}

// Names lists the workload names in the paper's order, for CLI
// help strings and iteration without building every program.
func Names() []string {
	ws := builtAll()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// ByName returns a copy of the named workload, or nil.
func ByName(name string) *Workload {
	for _, w := range builtAll() {
		if w.Name == name {
			return w.clone()
		}
	}
	return nil
}

// repeat builds a perf session by cycling the given command block n
// times, substituting %d with the iteration number where present.
func repeat(n int, block ...string) []string {
	out := make([]string, 0, n*len(block))
	for i := 0; i < n; i++ {
		for _, s := range block {
			if strings.Contains(s, "%d") {
				s = fmt.Sprintf(s, i)
			}
			out = append(out, s)
		}
	}
	return out
}
