package rmwtso

import (
	"repro/internal/chaos"
)

// ChaosEnv is the environment variable that arms the seeded
// fault-injection layer in a process built from this module (see
// InstallChaosFromEnv). Its value is a JSON chaos spec: a seed plus a
// list of rules naming a hook (artifact writes or cache reads), a fault
// kind (delay, bit-flip, ENOSPC, kill-at-byte-N) and firing bounds. The
// simulation harness sets it on the worker processes its scenarios
// script; it has no place in production runs.
const ChaosEnv = chaos.Env

// ChaosKillExitCode is the exit status of a process dying to an injected
// kill: 137, matching a real SIGKILL.
const ChaosKillExitCode = chaos.KillExitCode

// InstallChaosFromEnv arms fault injection from the ChaosEnv environment
// variable, returning a one-line description of the armed injector for
// the caller's startup banner, or "" when the variable is unset. An
// unparsable or invalid spec is an error: a chaos run that silently ran
// clean would defeat the scenario asserting on its faults.
func InstallChaosFromEnv() (string, error) {
	in, ok, err := chaos.FromEnv()
	if err != nil {
		return "", err
	}
	if !ok {
		return "", nil
	}
	chaos.Install(in)
	return "chaos armed: " + in.String(), nil
}
