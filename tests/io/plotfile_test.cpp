#include "io/Plotfile.hpp"

#include "problems/Canonical.hpp"

#include "TmpDir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace crocco::io {
namespace {

struct PlotFixture : ::testing::Test {
    std::unique_ptr<core::CroccoAmr> solver;
    test::TmpDir dir{"crocco_plotfile"};

    void SetUp() override {
        problems::SodTube sod(32);
        auto cfg = sod.solverConfig(true);
        solver = std::make_unique<core::CroccoAmr>(sod.geometry(), cfg,
                                                   sod.mapping());
        solver->init(sod.initialCondition(), sod.boundaryConditions());
        solver->evolve(2);
    }
};

TEST_F(PlotFixture, VtkFilesAreWellFormedPerLevel) {
    writeVtk(*solver, dir.file("pf"));
    for (int lev = 0; lev <= solver->finestLevel(); ++lev) {
        const std::string path = dir.file("pf_lev" + std::to_string(lev) + ".vtk");
        std::ifstream is(path);
        ASSERT_TRUE(is.good()) << path;
        std::string line;
        std::getline(is, line);
        EXPECT_EQ(line, "# vtk DataFile Version 3.0");
        // The file must declare exactly 8 points and 1 hexahedron per cell.
        std::stringstream buf;
        buf << is.rdbuf();
        const std::string body = buf.str();
        const auto ncells = solver->state(lev).numPts();
        EXPECT_NE(body.find("POINTS " + std::to_string(8 * ncells)),
                  std::string::npos);
        EXPECT_NE(body.find("CELL_DATA " + std::to_string(ncells)),
                  std::string::npos);
        for (const auto& name : fieldNames())
            EXPECT_NE(body.find("SCALARS " + name), std::string::npos);
    }
}

TEST_F(PlotFixture, CsvCoversDomainOnceAtFinestData) {
    const std::string csv = dir.file("pf.csv");
    writeCsv(*solver, csv);
    std::ifstream is(csv);
    std::string header;
    std::getline(is, header);
    EXPECT_EQ(header, "x,y,z,level,rho,u,v,w,p");
    // Row count = finest-covering decomposition: fine cells + uncovered
    // coarse cells.
    std::int64_t rows = 0;
    std::string line;
    while (std::getline(is, line)) ++rows;
    std::int64_t expected = solver->state(0).numPts();
    if (solver->finestLevel() >= 1) {
        const auto finePts = solver->state(1).numPts();
        expected += finePts - finePts / 8; // fine replaces covered coarse
    }
    EXPECT_EQ(rows, expected);
    // Spot-check physical plausibility of a data row.
    std::ifstream is2(csv);
    std::getline(is2, header);
    double x, y, z, rho, u, v, w, p;
    int lev;
    char c;
    is2 >> x >> c >> y >> c >> z >> c >> lev >> c >> rho >> c >> u >> c >> v >>
        c >> w >> c >> p;
    EXPECT_GT(rho, 0.0);
    EXPECT_GT(p, 0.0);
}

} // namespace
} // namespace crocco::io
