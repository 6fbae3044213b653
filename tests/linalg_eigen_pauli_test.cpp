#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/error.hpp"
#include "linalg/ops.hpp"
#include "linalg/pauli_matrices.hpp"

namespace qcut::linalg {
namespace {

TEST(PauliMatrices, AlgebraicRelations) {
  const CMat x = pauli_matrix(Pauli::X);
  const CMat y = pauli_matrix(Pauli::Y);
  const CMat z = pauli_matrix(Pauli::Z);
  const CMat id = pauli_matrix(Pauli::I);

  EXPECT_TRUE((x * x).approx_equal(id));
  EXPECT_TRUE((y * y).approx_equal(id));
  EXPECT_TRUE((z * z).approx_equal(id));
  // XY = iZ
  EXPECT_TRUE((x * y).approx_equal(z * cx{0, 1}));
  // Anticommutation {X, Z} = 0
  EXPECT_TRUE((x * z + z * x).approx_equal(CMat::zero(2, 2), 1e-12));
  // Tracelessness
  for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
    EXPECT_NEAR(std::abs(trace(pauli_matrix(p))), 0.0, 1e-12);
  }
}

TEST(PauliMatrices, EigensystemIsConsistent) {
  for (Pauli p : kAllPaulis) {
    for (int slot : {0, 1}) {
      const CVec& v = pauli_eigenstate(p, slot);
      const double lambda = pauli_eigenvalue(p, slot);
      const CVec pv = matvec(pauli_matrix(p), v);
      for (int i = 0; i < 2; ++i) {
        EXPECT_NEAR(std::abs(pv[static_cast<std::size_t>(i)] -
                             cx{lambda, 0} * v[static_cast<std::size_t>(i)]),
                    0.0, 1e-12)
            << pauli_name(p) << " slot " << slot;
      }
    }
  }
}

TEST(PauliMatrices, EigenprojectorsSumToIdentity) {
  for (Pauli p : kAllPaulis) {
    const CMat sum = pauli_eigenprojector(p, 0) + pauli_eigenprojector(p, 1);
    EXPECT_TRUE(sum.approx_equal(CMat::identity(2), 1e-12)) << pauli_name(p);
  }
}

TEST(PauliMatrices, SpectralDecompositionRecoversPauli) {
  for (Pauli p : kAllPaulis) {
    CMat rebuilt(2, 2);
    for (int slot : {0, 1}) {
      rebuilt += cx{pauli_eigenvalue(p, slot), 0} * pauli_eigenprojector(p, slot);
    }
    EXPECT_TRUE(rebuilt.approx_equal(pauli_matrix(p), 1e-12)) << pauli_name(p);
  }
}

TEST(PauliMatrices, ResolutionOfIdentityOverBasis) {
  // (1/2) sum_M tr(M rho) M == rho for any 2x2 rho: the single-wire cutting
  // identity (Eq. 3 of the paper).
  const CMat rho = {{cx{0.7, 0}, cx{0.1, 0.2}}, {cx{0.1, -0.2}, cx{0.3, 0}}};
  CMat rebuilt(2, 2);
  for (Pauli p : kAllPaulis) {
    const CMat& m = pauli_matrix(p);
    rebuilt += trace_of_product(m, rho) * m * cx{0.5, 0};
  }
  EXPECT_TRUE(rebuilt.approx_equal(rho, 1e-12));
}

TEST(PrepStates, VectorsMatchEigenstates) {
  EXPECT_EQ(prep_state_vector(PrepState::ZPlus), pauli_eigenstate(Pauli::Z, 0));
  EXPECT_EQ(prep_state_vector(PrepState::ZMinus), pauli_eigenstate(Pauli::Z, 1));
  EXPECT_EQ(prep_state_vector(PrepState::XPlus), pauli_eigenstate(Pauli::X, 0));
  EXPECT_EQ(prep_state_vector(PrepState::XMinus), pauli_eigenstate(Pauli::X, 1));
  EXPECT_EQ(prep_state_vector(PrepState::YPlus), pauli_eigenstate(Pauli::Y, 0));
  EXPECT_EQ(prep_state_vector(PrepState::YMinus), pauli_eigenstate(Pauli::Y, 1));
}

TEST(PrepStates, MappingFromPauli) {
  EXPECT_EQ(prep_state_for(Pauli::I, 0), PrepState::ZPlus);
  EXPECT_EQ(prep_state_for(Pauli::I, 1), PrepState::ZMinus);
  EXPECT_EQ(prep_state_for(Pauli::Y, 1), PrepState::YMinus);
  EXPECT_EQ(prep_state_for(Pauli::X, 0), PrepState::XPlus);
}

TEST(PrepStates, NamesAreDistinct) {
  std::set<std::string> names;
  for (PrepState s : kAllPrepStates) names.insert(prep_state_name(s));
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace qcut::linalg
