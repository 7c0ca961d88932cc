// Conjugate-gradient steady state for networks above gaussMaxNodes.
// The conductance Laplacian A = diag(gAmb_i + Σ_j g_ij) − G is symmetric
// positive definite (every node reaches the ambient boundary through the
// sink), which makes CG the natural solver: O(iterations × nnz) instead
// of elimination's O(n³), with nnz ≈ 5n on mesh floorplans. Its scratch
// is sized lazily and reused, so repeated solves allocate nothing.

package thermal

// cgTolerance is the relative convergence target: CG stops once the
// Jacobi-preconditioned residual norm falls below this fraction of the
// preconditioned right-hand-side norm. 1e-14 leaves steady-state
// temperatures within the differential suite's 1e-9 K of Gaussian
// elimination at every size the suite checks.
const cgTolerance = 1e-14

// cgIterFactor caps iterations at cgIterFactor × nodes. Exact-arithmetic
// CG terminates in n steps; the slack covers floating-point drift
// without letting a stagnated solve spin forever.
const cgIterFactor = 20

// cgScratch holds the conjugate-gradient work vectors.
type cgScratch struct {
	x    []float64 // solution
	b    []float64 // right-hand side
	r    []float64 // residual
	z    []float64 // preconditioned residual
	p    []float64 // search direction
	ap   []float64 // A·p
	diag []float64 // Laplacian diagonal (Jacobi preconditioner)
}

func (s *cgScratch) ensure(n int) {
	if len(s.x) == n {
		return
	}
	s.x = make([]float64, n)
	s.b = make([]float64, n)
	s.r = make([]float64, n)
	s.z = make([]float64, n)
	s.p = make([]float64, n)
	s.ap = make([]float64, n)
	s.diag = make([]float64, n)
}

// applyA computes dst = A·x over the CSR structure, with A expressed in
// the flux form gAmb_i·x_i + Σ_j g_ij (x_i − x_j) so the operator is
// applied exactly as the physics is stated.
func (m *Model) applyA(x, dst []float64) {
	for i := 0; i < m.nTotal; i++ {
		xi := x[i]
		acc := m.gAmb[i] * xi
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			acc += m.gval[k] * (xi - x[m.colIdx[k]])
		}
		dst[i] = acc
	}
}

// solveCG solves A·x = b for the steady state under the given per-block
// power and returns the full node solution (blocks, spreader, sink),
// which aliases the CG scratch.
func (m *Model) solveCG(power []float64) []float64 {
	s := &m.cg
	nt := m.nTotal
	s.ensure(nt)
	x := s.x

	// Right-hand side and Jacobi diagonal.
	for i := 0; i < nt; i++ {
		diag := m.gAmb[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			diag += m.gval[k]
		}
		s.diag[i] = diag
		s.b[i] = m.gAmb[i] * m.ambient
	}
	for i := 0; i < m.n; i++ {
		s.b[i] += power[i]
	}

	// Initial guess: uniform ambient. It is the exact solution at zero
	// power and captures the bulk temperature offset otherwise, so CG
	// spends its iterations on the spatial variation only.
	for i := 0; i < nt; i++ {
		x[i] = m.ambient
	}
	m.applyA(x, s.ap)
	rz := 0.0
	for i := 0; i < nt; i++ {
		s.r[i] = s.b[i] - s.ap[i]
		s.z[i] = s.r[i] / s.diag[i]
		s.p[i] = s.z[i]
		rz += s.r[i] * s.z[i]
	}
	// Convergence target in the preconditioned norm.
	bz := 0.0
	for i := 0; i < nt; i++ {
		bz += s.b[i] * s.b[i] / s.diag[i]
	}
	stop := cgTolerance * cgTolerance * bz

	for iter := 0; iter < cgIterFactor*nt && rz > stop; iter++ {
		m.applyA(s.p, s.ap)
		pap := 0.0
		for i := 0; i < nt; i++ {
			pap += s.p[i] * s.ap[i]
		}
		if pap <= 0 {
			break // numerically exhausted; A is SPD so this is the floor
		}
		alpha := rz / pap
		for i := 0; i < nt; i++ {
			x[i] += alpha * s.p[i]
			s.r[i] -= alpha * s.ap[i]
		}
		rzNext := 0.0
		for i := 0; i < nt; i++ {
			s.z[i] = s.r[i] / s.diag[i]
			rzNext += s.r[i] * s.z[i]
		}
		beta := rzNext / rz
		rz = rzNext
		for i := 0; i < nt; i++ {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	return x
}
