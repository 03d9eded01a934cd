package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/platform"
)

// inputs is everything one run sends, generated from the seed before any
// deployment boots.
type inputs struct {
	seed   int64
	window float64 // seconds the inputs were planned for
	warm   []op
	ops    []op // submit-grade and compile-mix
	stored []op // compile-mix: put in the store during set-up
	draft  draftPlan
}

// Op budgets: the most ops one run may issue per second of measuring,
// half again what the platform sustains on the reference machine. The
// inputs (and compile-mix's stored share, which set-up pre-populates) are
// generated before the run, so the budget bounds set-up work; a platform
// that outruns it ends its window early and reports exhausted=true.
const (
	submitOpsPerSecond  = 200
	compileOpsPerSecond = 250
)

func makeInputs(workload string, seed int64, seconds float64) inputs {
	in := inputs{seed: seed, window: seconds, warm: warmups(seed, hppLabs())}
	switch workload {
	case "submit-grade":
		in.ops = submitOps(seed, int(seconds*submitOpsPerSecond)+1)
	case "compile-mix":
		in.ops, in.stored = compileOps(seed, int(seconds*compileOpsPerSecond)+1)
	case "draft-session":
		in.draft = draftOps(seed, time.Duration(seconds*float64(time.Second)))
	}
	return in
}

// prepared is a booted, populated and warmed deployment.
type prepared struct {
	d        *deployment
	students []*client // submit-grade: students[i] makes op i
	student  *client   // compile-mix and draft-session: the one student
	session  *liveSession
	took     time.Duration
}

func (p *prepared) close() {
	if p.session != nil {
		p.session.close()
	}
	p.d.close()
}

// setUp boots a deployment on a fresh artifact store under dir and
// brings it to the state the timed window starts from: students
// registered (with their short answers filed, so a correct submission
// earns full marks), the store pre-populated, and one untimed op per lab
// run, which also generates the lab datasets.
func setUp(workload string, in inputs, dir string) (*prepared, error) {
	start := time.Now()
	cache := filepath.Join(dir, "cas")
	if len(in.stored) > 0 {
		if err := prepopulateInChild(cache, in); err != nil {
			return nil, err
		}
	}
	pr := &prepared{d: boot(cache)}
	fail := func(err error) (*prepared, error) {
		pr.close()
		return nil, err
	}
	switch workload {
	case "submit-grade":
		pr.students = make([]*client, len(in.ops))
		for i, o := range in.ops {
			c, err := enroll(pr.d, fmt.Sprintf("%s-s%05d", filepath.Base(dir), i), o.lab)
			if err != nil {
				return fail(err)
			}
			pr.students[i] = c
		}
		for j, o := range in.warm {
			c, err := enroll(pr.d, fmt.Sprintf("%s-w%d", filepath.Base(dir), j), o.lab)
			if err != nil {
				return fail(err)
			}
			if _, _, _, err := submitOp(c, o); err != nil {
				return fail(fmt.Errorf("warm-up %s: %w", o.lab.ID, err))
			}
		}
	case "compile-mix":
		c, err := pr.d.register(filepath.Base(dir) + "-c")
		if err != nil {
			return fail(err)
		}
		pr.student = c
		for _, o := range in.warm {
			if err := compileOp(c, o); err != nil {
				return fail(fmt.Errorf("warm-up %s: %w", o.lab.ID, err))
			}
		}
	case "draft-session":
		c, err := pr.d.register(filepath.Base(dir) + "-d")
		if err != nil {
			return fail(err)
		}
		pr.student = c
		s, err := openSession(pr.d, c, in.draft.lab)
		if err != nil {
			return fail(err)
		}
		pr.session = s
		seq, r, err := s.push(in.draft.warm)
		if err != nil || r.status != http.StatusAccepted {
			return fail(fmt.Errorf("warm-up draft: %v %v", r, err))
		}
		if _, _, ok := s.firstDiag(seq, 10*time.Second); !ok {
			return fail(fmt.Errorf("warm-up draft: no diagnostics event"))
		}
	}
	pr.took = time.Since(start)
	return pr, nil
}

// prepopulate is the throwaway deployment of compile-mix's set-up: it
// boots on the store at cache and compiles and analyzes the stored share
// of the sources, which persists both artifacts of each.
func prepopulate(cache string, stored []op) error {
	p := platform.New(platformOptions(cache))
	defer p.Close()
	for _, o := range stored {
		if _, err := p.ProgCache().Diagnostics(o.source, o.lab.Dialect); err != nil {
			return fmt.Errorf("pre-populate: %w", err)
		}
	}
	return nil
}

// prepopulateInChild runs prepopulate in a child process, as the earlier
// deployment it stands for would have run, so that its memory does not
// count toward this process's peak RSS. The child regenerates the same
// stored sources from the seed.
func prepopulateInChild(cache string, in inputs) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-workload", "compile-mix", "-seed", strconv.FormatInt(in.seed, 10),
		"-prepopulate", cache, "-window", strconv.FormatFloat(in.window, 'g', -1, 64))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("pre-populate: %w", err)
	}
	return nil
}

// enroll registers a student and files answers to every short-answer
// question of the lab they will submit.
func enroll(d *deployment, name string, lab *labs.Lab) (*client, error) {
	c, err := d.register(name)
	if err != nil {
		return nil, err
	}
	answers := make([]string, len(lab.Questions))
	for i := range answers {
		answers[i] = "answered: " + strings.Repeat("x", i+1)
	}
	r, err := c.do("POST", "/api/v1/labs/"+lab.ID+"/questions", map[string][]string{"answers": answers})
	if err != nil {
		return nil, err
	}
	if !r.ok() {
		return nil, fmt.Errorf("answer questions: %v", r)
	}
	return c, nil
}
