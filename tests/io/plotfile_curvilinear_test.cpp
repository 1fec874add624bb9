#include "io/Plotfile.hpp"

#include "problems/Dmr.hpp"

#include "TmpDir.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace crocco::io {
namespace {

TEST(PlotfileCurvilinear, VtkVerticesFollowTheWavyGrid) {
    // On the curvilinear DMR grid the exported cell vertices must be the
    // *physical* (curved) positions, not lattice positions.
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 0;
    o.curvilinear = true;
    o.waveAmplitude = 0.05;
    problems::Dmr dmr(o);
    core::CroccoAmr solver(dmr.geometry(), dmr.solverConfig(core::CodeVersion::V11),
                           dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    test::TmpDir dir("crocco_plotfile_curvilinear_vtk");
    writeVtk(solver, dir.file("pfc"));

    std::ifstream is(dir.file("pfc_lev0.vtk"));
    ASSERT_TRUE(is.good());
    std::string line;
    while (std::getline(is, line) && line.rfind("POINTS", 0) != 0) {
    }
    // Read the vertex cloud; x must span ~[0,4] and some interior vertex
    // must be displaced off the uniform lattice by the wave.
    double x, y, z, xmin = 1e30, xmax = -1e30;
    bool sawCurved = false;
    long count = 0;
    while (is >> x >> y >> z) {
        xmin = std::min(xmin, x);
        xmax = std::max(xmax, x);
        // Uniform lattice x-positions are multiples of 4/32 = 0.125 (cell
        // corners); a curvilinear vertex away from the boundary lands off
        // that lattice.
        const double r = std::fmod(x, 0.125);
        if (std::min(r, 0.125 - r) > 0.01 && y > 0.2 && y < 0.8)
            sawCurved = true;
        if (++count >= 8 * 32 * 8 * 8) break;
    }
    EXPECT_LT(xmin, 0.15);
    EXPECT_GT(xmax, 3.8);
    EXPECT_TRUE(sawCurved);
}

TEST(PlotfileCurvilinear, CsvCoordinatesArePhysical) {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 0;
    problems::Dmr dmr(o);
    core::CroccoAmr solver(dmr.geometry(), dmr.solverConfig(core::CodeVersion::V11),
                           dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    test::TmpDir dir("crocco_plotfile_curvilinear_csv");
    writeCsv(solver, dir.file("pfc.csv"));

    std::ifstream is(dir.file("pfc.csv"));
    std::string header;
    std::getline(is, header);
    double xmax = 0, rhoMin = 1e30, rhoMax = -1e30;
    std::string line;
    while (std::getline(is, line)) {
        std::replace(line.begin(), line.end(), ',', ' ');
        std::istringstream ls(line);
        double x, y, z, rho, u, v, w, p;
        int lev;
        ls >> x >> y >> z >> lev >> rho >> u >> v >> w >> p;
        xmax = std::max(xmax, x);
        rhoMin = std::min(rhoMin, rho);
        rhoMax = std::max(rhoMax, rho);
        EXPECT_GT(p, 0.0);
    }
    EXPECT_GT(xmax, 3.5); // physical domain is 4 long, not 32
    EXPECT_NEAR(rhoMin, 1.4, 1e-9);  // pre-shock
    EXPECT_NEAR(rhoMax, 8.0, 1e-9);  // post-shock (initial condition)
}

} // namespace
} // namespace crocco::io
