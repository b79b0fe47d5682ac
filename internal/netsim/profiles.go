package netsim

import "time"

// Canonical link profiles for the deployment pieces named in the paper's
// architecture (Fig. 3). The absolute values follow the paper's own anchors:
// the two campuses (Guangzhou and Clear Water Bay) are metro-distance apart,
// and remote learners reach the cloud over home broadband.

// InterCampus models the dedicated GZ<->CWB real-time transmission link.
func InterCampus() LinkConfig {
	return LinkConfig{
		Latency:   8 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
		LossRate:  0.0005,
		Bandwidth: 1e9,
	}
}

// EdgeToCloud models the campus edge to cloud VR server path.
func EdgeToCloud() LinkConfig {
	return LinkConfig{
		Latency:   15 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		LossRate:  0.001,
		Bandwidth: 1e9,
	}
}

// ResidentialBroadband models a remote learner on a decent home connection.
func ResidentialBroadband(oneWay time.Duration) LinkConfig {
	return LinkConfig{
		Latency:   oneWay,
		Jitter:    8 * time.Millisecond,
		LossRate:  0.005,
		Bandwidth: 50e6,
	}
}

// Degraded returns cfg with loss and latency scaled by the given factors,
// for failure-injection tests.
func Degraded(cfg LinkConfig, latencyFactor, lossFactor float64) LinkConfig {
	cfg.Latency = time.Duration(float64(cfg.Latency) * latencyFactor)
	loss := cfg.LossRate * lossFactor
	if loss > 1 {
		loss = 1
	}
	cfg.LossRate = loss
	return cfg
}
