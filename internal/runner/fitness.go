package runner

import "repro/internal/exp"

// SweepFitness scores every cell of a sweep report against the others
// under the given weights and returns the ranking, best first. Cost
// normalization spans the whole report, so mixed families rank against
// report-wide maxima — filter rep.Cells first to compare within a family.
// A metric a cell never reported contributes 0.
func SweepFitness(rep exp.Report, w exp.FitnessWeights) []exp.FitnessRow {
	rows := make([]exp.FitnessInput, len(rep.Cells))
	for i, c := range rep.Cells {
		rows[i] = fitnessInput(c.Name, func(key string) float64 {
			m, _ := c.Aggregate.Metric(key)
			return m.Mean
		})
	}
	return exp.Fitness(rows, w)
}

// fitnessInput reads the four fitness objectives off a candidate's metrics
// by their registered keys: delivery ratio up, buffer byte-seconds,
// unrecoverable count and mean recovery latency down.
func fitnessInput(name string, metric func(key string) float64) exp.FitnessInput {
	return exp.FitnessInput{
		Name:          name,
		Delivery:      metric(MKDeliveryRatio),
		ByteSeconds:   metric(MKBufferIntegralByteSec),
		Unrecoverable: metric(MKUnrecoverable),
		RecoveryMs:    metric(MKMeanRecoveryMs),
	}
}
